//! The [`BrowseSession`] abstraction: one interface over every browsable,
//! updatable spatial session.
//!
//! [`BrowsingService`](crate::BrowsingService) implements it once for
//! both read policies — refreeze-on-read
//! ([`GeoBrowsingService`](crate::GeoBrowsingService)) and pin-current
//! ([`DynamicGeoBrowsingService`](crate::DynamicGeoBrowsingService)) —
//! and the durable serve session implements it on top. Anything
//! that multiplexes work onto "a browsable, updatable spatial session" —
//! the `geobrowse serve` front door, the conformance harness — is
//! written once against this trait.

use std::sync::Arc;

use euler_core::RelationCounts;
use euler_engine::{EstimatorEngine, QueryBatch, SharedEstimator};
use euler_geom::Rect;
use euler_grid::{Grid, Tiling};
use euler_metrics::{Recorder, TelemetrySnapshot};

use crate::{BrowseRequest, BrowseResult};

/// A consistent, lock-free read view acquired from a [`BrowseSession`]:
/// the pinned estimator plus the epoch and write-log version it answers
/// from. Everything computed from the estimator is attributable to
/// exactly this `(epoch, version)` — the property result caches key on.
#[derive(Clone)]
pub struct PinnedSession {
    estimator: SharedEstimator,
    epoch: u64,
    version: u64,
}

impl PinnedSession {
    /// Wraps a pinned estimator with its provenance stamps.
    pub fn new(estimator: SharedEstimator, epoch: u64, version: u64) -> PinnedSession {
        PinnedSession {
            estimator,
            epoch,
            version,
        }
    }

    /// The pinned estimator (answers with no synchronization).
    pub fn estimator(&self) -> &SharedEstimator {
        &self.estimator
    }

    /// The ingest epoch the pinned snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The write-log prefix length the pinned snapshot reflects. Unlike
    /// the epoch (bumped only by refreezes) this advances on *every*
    /// write, so it is the correct cache/invalidation stamp for both
    /// read profiles.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl std::fmt::Debug for PinnedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedSession")
            .field("estimator", &self.estimator.name())
            .field("epoch", &self.epoch)
            .field("version", &self.version)
            .finish()
    }
}

/// A browsable, updatable spatial session: the interface the serve front
/// door and the conformance harness program against.
///
/// Both read policies of [`BrowsingService`](crate::BrowsingService)
/// implement it; which one you hand out decides the read policy
/// (refreeze-on-read vs pin-current), not the API.
pub trait BrowseSession: Send + Sync {
    /// The session profile name (for telemetry and protocol banners).
    fn session_name(&self) -> &'static str;

    /// The session grid.
    fn grid(&self) -> &Grid;

    /// Number of indexed objects.
    fn len(&self) -> u64;

    /// True when no objects are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current publish epoch (bumped by every refreeze; starts at 1).
    fn epoch(&self) -> u64;

    /// The current write-log version (bumped by every insert/remove).
    fn version(&self) -> u64;

    /// Acquires a consistent read view: a pinned estimator stamped with
    /// the epoch and version it answers from. Pinning never blocks
    /// writers, and a pinned view is immune to later writes.
    fn pin_session(&self) -> PinnedSession;

    /// The resolution level this session would serve `_tiling` from:
    /// always 0, since every session answers at its one resolution.
    /// Nothing calls it. It stays only because loadbench's
    /// `TracedSession` forwards it, and it goes together with that
    /// forwarder in the next change to the benchmark.
    fn resolution_level(&self, _tiling: &Tiling) -> usize {
        0
    }

    /// Inserts an object MBR.
    fn insert(&self, rect: &Rect);

    /// Removes a previously inserted MBR (linear-sketch exact removal).
    fn remove(&self, rect: &Rect);

    /// Inserts an object MBR, reporting the acknowledged write-log
    /// version — the fallible form durable sessions implement (a WAL
    /// append can fail; an in-memory insert cannot). In-memory sessions
    /// use this default and never error.
    fn try_insert(&self, rect: &Rect) -> std::io::Result<u64> {
        self.insert(rect);
        Ok(self.version())
    }

    /// Removes a previously inserted MBR, reporting the acknowledged
    /// write-log version. See [`BrowseSession::try_insert`].
    fn try_remove(&self, rect: &Rect) -> std::io::Result<u64> {
        self.remove(rect);
        Ok(self.version())
    }

    /// Forces every acknowledged write to stable storage — a no-op for
    /// in-memory sessions, the WAL drain for durable ones. Called by the
    /// serve front door on graceful shutdown.
    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// Takes a durability checkpoint, returning the `(epoch, version)`
    /// it captured — `Ok(None)` for sessions with nothing to checkpoint.
    fn checkpoint(&self) -> std::io::Result<Option<(u64, u64)>> {
        Ok(None)
    }

    /// The session's always-on telemetry recorder.
    fn recorder(&self) -> &Arc<Recorder>;

    /// A point-in-time readout of the session's query stats.
    fn telemetry(&self) -> TelemetrySnapshot {
        self.recorder().snapshot()
    }

    /// Answers a browsing query on a freshly pinned view — the one
    /// multi-tile entry point. The request carries every knob: worker
    /// count, telemetry, mega-hit threshold, deadline.
    ///
    /// On a sweep-capable estimator the engine answers the tiling with
    /// one amortized sweep (counted in the telemetry's `sweep_hits`),
    /// with or without a deadline: the deadline is checked once before
    /// it starts, and a started sweep delivers every tile. Otherwise the
    /// per-tile loop checks the deadline before every tile. Tiles left
    /// unanswered — all of them when the deadline had passed before the
    /// start, the loop's tail when it passes during it — are listed in [`BrowseResult::unavailable`] instead of
    /// failing the whole tiling.
    fn browse(&self, tiling: &Tiling, req: &BrowseRequest) -> BrowseResult {
        run_browse(self.pin_session().estimator(), self.recorder(), tiling, req)
    }
}

/// The shared engine-backed browse path: dispatches `tiling` through an
/// [`EstimatorEngine`] over `estimator` under the request's controls,
/// converts failed slots into per-tile availability, and (when telemetry
/// is on) feeds the zero-hit/mega-hit advice counters.
///
/// Every session's [`BrowseSession::browse`], the serve front door and
/// `geobrowse`'s one-shot browse funnel through this one function, so
/// "what a browse means" is defined exactly once.
pub fn run_browse(
    estimator: &SharedEstimator,
    recorder: &Arc<Recorder>,
    tiling: &Tiling,
    req: &BrowseRequest,
) -> BrowseResult {
    let mut builder = EstimatorEngine::builder(estimator.clone()).threads(req.effective_threads());
    let telemetry = req.telemetry_enabled();
    if telemetry {
        builder = builder.recorder(recorder.clone());
    }
    let result = builder
        .build()
        .run_batch_with(&QueryBatch::from(tiling), req.batch_options());
    let unavailable: Vec<usize> = result
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_failed())
        .map(|(i, _)| i)
        .collect();
    let counts: Vec<_> = result.counts.into_iter().map(|c| c.clamped()).collect();
    if telemetry {
        let hits = |c: &RelationCounts| c.intersecting();
        let delivered = || {
            counts
                .iter()
                .zip(&result.outcomes)
                .filter(|(_, o)| o.is_delivered())
                .map(|(c, _)| c)
        };
        let zero = delivered().filter(|c| hits(c) == 0).count();
        let mega = delivered().filter(|c| hits(c) >= req.mega_limit()).count();
        recorder.add_zero_hits(zero as u64);
        recorder.add_mega_hits(mega as u64);
    }
    BrowseResult::with_unavailable(*tiling, counts, unavailable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicGeoBrowsingService, GeoBrowsingService};
    use euler_core::Level2Estimator;
    use euler_grid::DataSpace;
    use std::time::Duration;

    fn grid() -> Grid {
        Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 8.0, 8.0).unwrap()), 8, 8).unwrap()
    }

    fn sessions() -> Vec<Arc<dyn BrowseSession>> {
        vec![
            Arc::new(GeoBrowsingService::new(grid())),
            Arc::new(DynamicGeoBrowsingService::new(grid())),
        ]
    }

    /// The law the trait exists for: written once, it holds for both
    /// profiles — browse tile = clamped pinned estimate, writes land,
    /// versions advance per write, epochs only at publish points.
    #[test]
    fn both_profiles_satisfy_the_session_contract() {
        for session in sessions() {
            let name = session.session_name();
            assert!(session.is_empty(), "{name}");
            let r = Rect::new(1.2, 1.2, 2.8, 2.8).unwrap();
            let v0 = session.version();
            session.insert(&r);
            assert_eq!(session.len(), 1, "{name}");
            assert_eq!(session.version(), v0 + 1, "{name}: insert bumps version");

            let tiling = Tiling::new(session.grid().full(), 4, 4).unwrap();
            let result = session.browse(&tiling, &BrowseRequest::new());
            assert_eq!(
                result.get(0, 0).intersecting(),
                1,
                "{name}: write is visible"
            );
            let pinned = session.pin_session();
            for ((_, tile), got) in tiling.iter().zip(result.counts()) {
                let want = pinned.estimator().estimate(&tile).clamped();
                assert_eq!(*got, want, "{name}: tile {tile}");
            }
            assert_eq!(
                pinned.epoch(),
                session.epoch(),
                "{name}: pin carries the session epoch"
            );

            session.remove(&r);
            assert_eq!(session.version(), v0 + 2, "{name}: remove bumps version");
            assert!(session.is_empty(), "{name}");
            let result = session.browse(&tiling, &BrowseRequest::new());
            assert_eq!(
                result.get(0, 0).intersecting(),
                0,
                "{name}: removal is visible"
            );
            assert_eq!(session.telemetry().queries, 32, "{name}");
        }
    }

    /// A pinned view is isolated from later writes; a fresh pin sees them.
    #[test]
    fn pins_are_consistent_snapshots() {
        for session in sessions() {
            let name = session.session_name();
            session.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
            let pinned = session.pin_session();
            session.insert(&Rect::new(5.2, 5.2, 5.8, 5.8).unwrap());
            let q = session.grid().full();
            assert_eq!(
                pinned.estimator().estimate(&q).clamped().total(),
                1,
                "{name}"
            );
            let fresh = session.pin_session();
            assert_eq!(
                fresh.estimator().estimate(&q).clamped().total(),
                2,
                "{name}"
            );
            assert!(fresh.version() > pinned.version(), "{name}");
        }
    }

    #[test]
    fn parallel_browse_matches_sequential() {
        for session in sessions() {
            let name = session.session_name();
            for i in 0..40 {
                let x = 0.1 + (i % 7) as f64;
                let y = 0.1 + (i % 5) as f64;
                session.insert(&Rect::new(x, y, x + 0.7, y + 0.6).unwrap());
            }
            let tiling = Tiling::new(session.grid().full(), 8, 8).unwrap();
            let seq = session.browse(&tiling, &BrowseRequest::new());
            for threads in [0, 2, 4, 16] {
                let par = session.browse(&tiling, &BrowseRequest::new().threads(threads));
                assert_eq!(seq.counts(), par.counts(), "{name}: {threads} threads");
            }
            // The pinned view reports through the shared estimator interface.
            let report = EstimatorEngine::builder(session.pin_session().estimator().clone())
                .threads(4)
                .build()
                .run_batch(&QueryBatch::from(&tiling))
                .report;
            assert_eq!(report.queries, 64, "{name}");
            assert_eq!(report.estimator, "S-EulerApprox", "{name}");
        }
    }

    fn frozen_estimator(g: Grid, rects: &[Rect]) -> SharedEstimator {
        let s = euler_grid::Snapper::new(g);
        let objs: Vec<_> = rects.iter().map(|r| s.snap(r)).collect();
        Arc::new(euler_core::SEulerApprox::new(
            euler_core::EulerHistogram::build(g, &objs).freeze(),
        ))
    }

    #[test]
    fn browse_answers_every_tile() {
        let est = frozen_estimator(
            grid(),
            &[
                Rect::new(1.2, 1.2, 1.8, 1.8).unwrap(),
                Rect::new(5.2, 5.2, 5.8, 5.8).unwrap(),
                Rect::new(5.4, 5.4, 6.4, 6.4).unwrap(),
            ],
        );
        let tiling = Tiling::new(grid().full(), 4, 4).unwrap();
        let res = run_browse(&est, &Recorder::shared(), &tiling, &BrowseRequest::new());
        assert_eq!(res.counts().len(), 16);
        // Tile (0,0) covers cells [0,2)x[0,2): contains the first object.
        assert_eq!(res.get(0, 0).contains, 1);
        // Tile (2,2) covers [4,6)x[4,6): contains the second object and
        // overlaps the third.
        assert_eq!(res.get(2, 2).contains, 1);
        assert_eq!(res.get(2, 2).overlaps, 1);
        assert_eq!(res.max_of(crate::Relation::Contains), 1);
        assert_eq!(res.max_of(crate::Relation::Intersect), 2);
    }

    /// At any worker count, `run_browse` over a frozen estimator equals
    /// the clamped per-tile loop.
    #[test]
    fn engine_browse_matches_sequential() {
        let g = Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, 36.0, 18.0).unwrap()),
            36,
            18,
        )
        .unwrap();
        let rects: Vec<_> = (0..500)
            .map(|i| {
                let x = (i * 13 % 340) as f64 / 10.0;
                let y = (i * 7 % 160) as f64 / 10.0;
                Rect::new(x, y, x + 1.7, y + 1.1).unwrap()
            })
            .collect();
        let est = frozen_estimator(g, &rects);
        let tiling = Tiling::new(g.full(), 18, 18).unwrap();
        let looped: Vec<_> = tiling
            .iter()
            .map(|(_, tile)| est.estimate(&tile).clamped())
            .collect();
        for threads in [1, 2, 3, 7, 64] {
            let req = BrowseRequest::new().threads(threads);
            let res = run_browse(&est, &Recorder::shared(), &tiling, &req);
            assert_eq!(res.counts(), &looped[..], "{threads} threads");
        }
    }

    #[test]
    fn telemetry_records_browses_and_advice_counters() {
        for session in sessions() {
            let name = session.session_name();
            session.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
            let tiling = Tiling::new(session.grid().full(), 4, 4).unwrap();

            session.browse(&tiling, &BrowseRequest::new().mega_threshold(1));
            let stats = session.telemetry();
            assert_eq!(stats.queries, 16, "{name}");
            assert_eq!(stats.batches, 1, "{name}");
            assert_eq!(stats.query_latency.count(), 16, "{name}");
            // One object in one tile: 15 zero-hit tiles, 1 mega-hit (≥ 1).
            assert_eq!(stats.zero_hits, 15, "{name}");
            assert_eq!(stats.mega_hits, 1, "{name}");
            assert!(stats.query_latency.p50() <= stats.query_latency.p99());

            // Telemetry off: nothing moves.
            session.browse(&tiling, &BrowseRequest::new().telemetry(false));
            let after = session.telemetry();
            assert_eq!((after.queries, after.batches), (16, 1), "{name}");

            // Every tile accounts for the one object.
            session.browse(&tiling, &BrowseRequest::new());
            let stats = session.telemetry();
            assert_eq!((stats.queries, stats.batches), (32, 2), "{name}");
            assert_eq!(stats.objects_estimated, 32, "{name}");

            // The snapshot renders as text tables.
            assert!(stats.render().contains("p99"), "{name}");
        }
    }

    #[test]
    fn browse_dispatches_sweep_and_counts_it() {
        for session in sessions() {
            let name = session.session_name();
            for i in 0..12 {
                let x = 0.2 + (i % 6) as f64;
                let y = 0.2 + (i % 4) as f64;
                session.insert(&Rect::new(x, y, x + 0.5, y + 0.5).unwrap());
            }
            let tiling = Tiling::new(session.grid().full(), 4, 4).unwrap();
            let result = session.browse(&tiling, &BrowseRequest::new());
            let stats = session.telemetry();
            assert_eq!(
                stats.sweep_hits, 1,
                "{name}: tiling browse takes the sweep path"
            );
            assert_eq!(stats.tiling_latency.count(), 1, "{name}");
            assert_eq!(
                stats.queries, 16,
                "{name}: sweep telemetry stays tile-granular"
            );

            // The sweep path returns exactly what the per-tile loop would.
            let pinned = session.pin_session();
            for ((_, tile), got) in tiling.iter().zip(result.counts()) {
                let want = pinned.estimator().estimate(&tile).clamped();
                assert_eq!(*got, want, "{name}: tile {tile}");
            }

            // A telemetry-off browse still sweeps, but records nothing.
            session.browse(&tiling, &BrowseRequest::new().telemetry(false));
            assert_eq!(session.telemetry().sweep_hits, 1, "{name}");
        }
    }

    /// Degraded serving: under a deadline the browse returns per-tile
    /// availability instead of erroring the whole tiling, and the advice
    /// counters do not mistake "no answer" for "zero hits".
    #[test]
    fn browse_with_deadline_surfaces_partial_availability() {
        for session in sessions() {
            let name = session.session_name();
            session.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
            let tiling = Tiling::new(session.grid().full(), 4, 4).unwrap();
            let quiet = || BrowseRequest::new().telemetry(false);

            // A generous budget delivers everything, identical to no budget.
            let full = session.browse(&tiling, &quiet());
            let generous = session.browse(&tiling, &quiet().deadline(Duration::from_secs(3600)));
            assert!(generous.is_complete(), "{name}");
            assert_eq!(generous.counts(), full.counts(), "{name}");

            // A zero budget delivers nothing — but still returns.
            let zero_before = session.telemetry().zero_hits;
            let starved = session.browse(&tiling, &BrowseRequest::new().deadline(Duration::ZERO));
            assert!(!starved.is_complete(), "{name}");
            assert_eq!(starved.unavailable().len(), 16, "{name}");
            assert!(!starved.is_available(0, 0), "{name}");
            assert!(starved.counts().iter().all(|c| c.total() == 0), "{name}");
            let stats = session.telemetry();
            assert_eq!(
                stats.zero_hits, zero_before,
                "{name}: unanswered tiles are not zero-hit advice"
            );
            assert_eq!(stats.deadline_exceeded, 1, "{name}");
        }
    }

    /// One writer and three readers share a session; every write lands
    /// and telemetry sees every concurrent browse exactly once.
    #[test]
    fn concurrent_readers_and_writers() {
        for session in sessions() {
            let name = session.session_name();
            session.insert(&Rect::new(2.2, 2.2, 2.8, 2.8).unwrap());
            let tiling = Tiling::new(session.grid().full(), 2, 2).unwrap();
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let session = session.clone();
                    std::thread::spawn(move || {
                        for i in 0..50 {
                            if t == 0 {
                                let x = 0.1 + (i % 7) as f64;
                                session.insert(&Rect::new(x, 0.1, x + 0.5, 0.6).unwrap());
                            } else {
                                let res = session.browse(&tiling, &BrowseRequest::new());
                                assert!(res.counts()[0].total() >= 1);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(session.len(), 51, "{name}");
            assert_eq!(session.telemetry().queries, 3 * 50 * 4, "{name}");
        }
    }
}
