use std::sync::Arc;

use euler_core::{LiveEulerHistogram, LiveSEuler};
use euler_engine::{EstimatorEngine, SharedEstimator};
use euler_geom::Rect;
use euler_grid::{Grid, SnappedRect, Snapper, Tiling};
use euler_metrics::{Recorder, TelemetrySnapshot};

use crate::session::{run_browse, BrowseSession, PinnedSession};
use crate::{BrowseRequest, BrowseResult, Browser};

/// A concurrent GeoBrowsing front end over an updatable Euler histogram.
///
/// The Euler histogram is a *linear sketch*: inserts and removes commute,
/// so the service keeps one [`LiveEulerHistogram`] — writes append to its
/// delta, readers pin epoch snapshots. Browsing takes an `Arc` snapshot —
/// readers never block writers (pinning is one brief lock acquisition,
/// after which the view answers with no synchronization at all), and a
/// long browse keeps working on the consistent epoch it started from.
///
/// Refreezing is deferred and amortized: the first read after a batch of
/// writes folds the delta into a fresh frozen cube and publishes a new
/// epoch, so steady-state browses sweep a pure frozen prefix cube.
///
/// Every browse is dispatched through the batch engine and (unless
/// disabled per request) recorded into the service's always-on
/// [`Recorder`]: queries served, latency percentiles, per-relation
/// totals, the epoch each batch was answered from, and the
/// zero-hit/mega-hit tile counters that drive refinement advice. Read
/// the stats with [`GeoBrowsingService::telemetry`].
///
/// The service implements [`BrowseSession`] — the interface the
/// `geobrowse serve` front door and the conformance harness multiplex
/// over; [`DynamicGeoBrowsingService`](crate::DynamicGeoBrowsingService)
/// is the same substrate under the write-heavy read policy.
pub struct GeoBrowsingService {
    grid: Grid,
    snapper: Snapper,
    live: Arc<LiveEulerHistogram>,
    recorder: Arc<Recorder>,
}

impl GeoBrowsingService {
    /// An empty service over `grid`.
    pub fn new(grid: Grid) -> GeoBrowsingService {
        GeoBrowsingService::from_live(Arc::new(LiveEulerHistogram::new(grid)))
    }

    /// Bulk-loads a service from raw MBRs.
    pub fn with_objects(grid: Grid, rects: &[Rect]) -> GeoBrowsingService {
        let snapper = Snapper::new(grid);
        let snapped: Vec<SnappedRect> = rects.iter().map(|r| snapper.snap(r)).collect();
        GeoBrowsingService::from_live(Arc::new(LiveEulerHistogram::with_objects(grid, &snapped)))
    }

    /// A service over an existing shared substrate — how a durable store
    /// (whose writes must go through its WAL) shares its histogram with
    /// the read path.
    pub fn from_live(live: Arc<LiveEulerHistogram>) -> GeoBrowsingService {
        let grid = live.grid();
        GeoBrowsingService {
            grid,
            snapper: Snapper::new(grid),
            live,
            recorder: Recorder::shared(),
        }
    }

    /// The service grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.live.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current ingest epoch (bumped by every refreeze; starts at 1).
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// The current write-log version (bumped by every insert/remove).
    pub fn version(&self) -> u64 {
        self.live.version()
    }

    /// Inserts an object MBR (appends to the live delta).
    pub fn insert(&self, rect: &Rect) {
        self.live.insert(&self.snapper.snap(rect));
    }

    /// Removes a previously inserted MBR (linear-sketch exact removal).
    pub fn remove(&self, rect: &Rect) {
        self.live.remove(&self.snapper.snap(rect));
    }

    /// Returns the current read snapshot, refreezing it if stale: when
    /// writes have accumulated in the delta, they are folded into a fresh
    /// frozen cube and a new epoch is published, so the snapshot handed
    /// out always sweeps a pure frozen prefix cube.
    pub fn snapshot(&self) -> Arc<LiveSEuler> {
        Arc::new(LiveSEuler::new(self.live.refreeze_if_stale()))
    }

    /// The service's telemetry recorder (always on; shared with every
    /// engine the service hands out).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// A point-in-time readout of the service's query stats: queries and
    /// batches served, `p50/p95/p99/max` latency, per-relation estimate
    /// totals, zero-hit/mega-hit tiles.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder.snapshot()
    }

    /// A batch engine over the current snapshot — the shared multi-tile
    /// dispatch path, wired to the service recorder. The engine keeps the
    /// snapshot `Arc`, so writes after this call don't affect an engine
    /// already handed out.
    pub fn engine(&self, threads: usize) -> EstimatorEngine {
        EstimatorEngine::builder(self.snapshot())
            .threads(threads)
            .recorder(self.recorder.clone())
            .build()
    }

    /// Answers a browsing query on the current snapshot — the one
    /// multi-tile entry point. The request carries every knob: worker
    /// count (engine fan-out; worthwhile from a few thousand tiles),
    /// telemetry, the mega-hit advice threshold, and optionally a
    /// wall-clock deadline and/or a cancellation token.
    ///
    /// Without controls, the batch is tiling-shaped and the frozen
    /// S-Euler snapshot supports the sweep evaluator, so the engine
    /// answers it with one amortized row-major pass (`estimate_tiling`)
    /// rather than a per-tile loop; the telemetry's `sweep_hits` counter
    /// and tiling latency series record each such dispatch.
    ///
    /// With a deadline or cancel token, the engine takes the cancellable
    /// per-tile rung of the degradation ladder, and instead of erroring
    /// the whole tiling when the budget runs out (or a worker faults) the
    /// result surfaces per-tile availability: answered tiles carry their
    /// counts, unanswered ones are listed in
    /// [`BrowseResult::unavailable`] (and excluded from the
    /// zero-hit/mega-hit advice counters — "no answer" is not "zero
    /// hits").
    pub fn browse(&self, tiling: &Tiling, req: &BrowseRequest) -> BrowseResult {
        let est: SharedEstimator = self.snapshot();
        run_browse(&est, &self.recorder, tiling, req)
    }
}

impl BrowseSession for GeoBrowsingService {
    fn session_name(&self) -> &'static str {
        "GeoBrowsingService"
    }

    fn grid(&self) -> &Grid {
        &self.grid
    }

    fn len(&self) -> u64 {
        self.live.len()
    }

    fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    fn version(&self) -> u64 {
        self.live.version()
    }

    /// Pin under the static read policy: refreeze if stale, so the view
    /// handed out always sweeps a pure frozen prefix cube.
    fn pin_session(&self) -> PinnedSession {
        let snap = self.live.refreeze_if_stale();
        let (epoch, version) = (snap.epoch(), snap.version());
        PinnedSession::new(Arc::new(LiveSEuler::new(snap)), epoch, version)
    }

    fn insert(&self, rect: &Rect) {
        GeoBrowsingService::insert(self, rect);
    }

    fn remove(&self, rect: &Rect) {
        GeoBrowsingService::remove(self, rect);
    }

    fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    fn browse(&self, tiling: &Tiling, req: &BrowseRequest) -> BrowseResult {
        GeoBrowsingService::browse(self, tiling, req)
    }
}

impl Browser for GeoBrowsingService {
    fn name(&self) -> &'static str {
        "GeoBrowsingService"
    }

    fn browse(&self, tiling: &Tiling) -> BrowseResult {
        GeoBrowsingService::browse(self, tiling, &BrowseRequest::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::Level2Estimator;
    use euler_engine::QueryBatch;
    use euler_grid::DataSpace;

    fn grid() -> Grid {
        Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 8.0, 8.0).unwrap()), 8, 8).unwrap()
    }

    fn req() -> BrowseRequest {
        BrowseRequest::default()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let svc = GeoBrowsingService::new(grid());
        let r = Rect::new(1.2, 1.2, 1.8, 1.8).unwrap();
        svc.insert(&r);
        assert_eq!(svc.len(), 1);
        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();
        assert_eq!(svc.browse(&tiling, &req()).get(0, 0).contains, 1);
        svc.remove(&r);
        assert_eq!(svc.len(), 0);
        assert_eq!(svc.browse(&tiling, &req()).get(0, 0).contains, 0);
    }

    #[test]
    fn parallel_browse_matches_sequential() {
        let svc = GeoBrowsingService::new(grid());
        for i in 0..40 {
            let x = 0.1 + (i % 7) as f64;
            let y = 0.1 + (i % 5) as f64;
            svc.insert(&Rect::new(x, y, x + 0.7, y + 0.6).unwrap());
        }
        let tiling = Tiling::new(svc.grid().full(), 8, 8).unwrap();
        let seq = svc.browse(&tiling, &req());
        for threads in [0, 2, 4, 16] {
            let par = svc.browse(&tiling, &req().threads(threads));
            assert_eq!(seq.counts(), par.counts(), "{threads} threads");
        }
        // The engine reports through the shared estimator interface.
        let report = svc.engine(4).run_batch(&QueryBatch::from(&tiling)).report;
        assert_eq!(report.queries, 64);
        assert_eq!(report.estimator, "S-EulerApprox");
    }

    #[test]
    fn telemetry_records_browses_and_advice_counters() {
        let svc = GeoBrowsingService::new(grid());
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();

        svc.browse(&tiling, &req().mega_threshold(1));
        let stats = svc.telemetry();
        assert_eq!(stats.queries, 16);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.query_latency.count(), 16);
        // One object in one tile: 15 zero-hit tiles, 1 mega-hit (≥ 1).
        assert_eq!(stats.zero_hits, 15);
        assert_eq!(stats.mega_hits, 1);
        assert!(stats.query_latency.p50() <= stats.query_latency.p99());

        // Telemetry off: nothing moves.
        svc.browse(&tiling, &req().telemetry(false));
        let after = svc.telemetry();
        assert_eq!(after.queries, 16);
        assert_eq!(after.batches, 1);

        // The engine() path shares the same recorder.
        svc.engine(2).run_batch(&QueryBatch::from(&tiling));
        assert_eq!(svc.telemetry().queries, 32);

        // The snapshot renders as text tables.
        assert!(svc.telemetry().render().contains("p99"));
    }

    #[test]
    fn browse_dispatches_sweep_and_counts_it() {
        let svc = GeoBrowsingService::new(grid());
        for i in 0..12 {
            let x = 0.2 + (i % 6) as f64;
            let y = 0.2 + (i % 4) as f64;
            svc.insert(&Rect::new(x, y, x + 0.5, y + 0.5).unwrap());
        }
        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();
        let result = svc.browse(&tiling, &req());
        let stats = svc.telemetry();
        assert_eq!(stats.sweep_hits, 1, "tiling browse takes the sweep path");
        assert_eq!(stats.tiling_latency.count(), 1);
        assert_eq!(stats.queries, 16, "sweep telemetry stays tile-granular");

        // The sweep path returns exactly what the per-tile loop would.
        let snapshot = svc.snapshot();
        for ((_, tile), got) in tiling.iter().zip(result.counts()) {
            assert_eq!(*got, snapshot.estimate(&tile).clamped(), "tile {tile}");
        }

        // A telemetry-off browse still sweeps, but records nothing.
        svc.browse(&tiling, &req().telemetry(false));
        assert_eq!(svc.telemetry().sweep_hits, 1);
    }

    /// Degraded serving: under a deadline the browse returns per-tile
    /// availability instead of erroring the whole tiling, and the advice
    /// counters do not mistake "no answer" for "zero hits".
    #[test]
    fn browse_with_deadline_surfaces_partial_availability() {
        let svc = GeoBrowsingService::new(grid());
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();

        // A generous budget delivers everything, identical to browse().
        let full = svc.browse(&tiling, &req().telemetry(false));
        let generous = svc.browse(
            &tiling,
            &req()
                .telemetry(false)
                .deadline(std::time::Duration::from_secs(3600)),
        );
        assert!(generous.is_complete());
        assert_eq!(generous.counts(), full.counts());

        // A zero budget delivers nothing — but still returns.
        let zero_before = svc.telemetry().zero_hits;
        let starved = svc.browse(&tiling, &req().deadline(std::time::Duration::ZERO));
        assert!(!starved.is_complete());
        assert_eq!(starved.unavailable().len(), 16);
        assert!(!starved.is_available(0, 0));
        assert!(starved.counts().iter().all(|c| c.total() == 0));
        let stats = svc.telemetry();
        assert_eq!(
            stats.zero_hits, zero_before,
            "unanswered tiles are not zero-hit advice"
        );
        assert_eq!(stats.deadline_exceeded, 1);
    }

    #[test]
    fn trait_browse_uses_default_options() {
        let svc = GeoBrowsingService::new(grid());
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        let tiling = Tiling::new(svc.grid().full(), 2, 2).unwrap();
        let via_trait = Browser::browse(&svc, &tiling);
        assert_eq!(via_trait.counts().len(), 4);
        assert_eq!(svc.telemetry().queries, 4);
        assert_eq!(Browser::name(&svc), "GeoBrowsingService");
    }

    /// Writes accumulate in the delta; the first read folds them and
    /// publishes a new epoch, which tags every batch answered from it —
    /// visible both on the service and in its telemetry.
    #[test]
    fn browses_are_answered_from_published_epochs() {
        let svc = GeoBrowsingService::new(grid());
        assert_eq!(svc.epoch(), 1);
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        assert_eq!(svc.epoch(), 1, "writes alone do not refreeze");

        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();
        svc.browse(&tiling, &req());
        assert_eq!(svc.epoch(), 2, "first read after a write refreezes");
        assert_eq!(svc.telemetry().last_epoch, 2);

        // Read-only browses reuse the epoch…
        svc.browse(&tiling, &req());
        assert_eq!(svc.epoch(), 2);
        // …and the next write/read cycle publishes the next one.
        svc.insert(&Rect::new(5.2, 5.2, 5.8, 5.8).unwrap());
        svc.browse(&tiling, &req());
        assert_eq!(svc.epoch(), 3);
        assert_eq!(svc.telemetry().last_epoch, 3);
    }

    #[test]
    fn snapshot_survives_concurrent_writes() {
        let svc = GeoBrowsingService::new(grid());
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        let snap = svc.snapshot();
        svc.insert(&Rect::new(5.2, 5.2, 5.8, 5.8).unwrap());
        // The old snapshot still sees one object (consistent reads)…
        assert_eq!(snap.object_count(), 1);
        // …and a fresh snapshot sees both.
        assert_eq!(svc.snapshot().object_count(), 2);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let svc = Arc::new(GeoBrowsingService::with_objects(
            grid(),
            &[Rect::new(2.2, 2.2, 2.8, 2.8).unwrap()],
        ));
        let tiling = Tiling::new(svc.grid().full(), 2, 2).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    if t == 0 {
                        let x = 0.1 + (i % 7) as f64;
                        svc.insert(&Rect::new(x, 0.1, x + 0.5, 0.6).unwrap());
                    } else {
                        let res = svc.browse(&tiling, &BrowseRequest::default());
                        let total = res.counts()[0].total();
                        assert!(total >= 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.len(), 51);
        // Telemetry saw every concurrent browse exactly once.
        assert_eq!(svc.telemetry().queries, 3 * 50 * 4);
    }
}
