use std::borrow::Borrow;
use std::sync::Arc;

use euler_core::{DeltaOp, EulerHistogram, LiveEulerHistogram, LiveSEuler};
use euler_geom::Rect;
use euler_grid::{Grid, Snapper};
use euler_metrics::Recorder;

use crate::session::{BrowseSession, PinnedSession};

/// A concurrent GeoBrowsing front end over an updatable Euler histogram,
/// generic over its read policy.
///
/// The Euler histogram is a *linear sketch*: inserts and removes commute,
/// so the service keeps one [`LiveEulerHistogram`] — writes append to its
/// delta, readers pin epoch snapshots. Pinning is one brief lock
/// acquisition, after which the view answers with no synchronization at
/// all, so readers never block writers and a long browse keeps working
/// on the consistent snapshot it started from.
///
/// The one thing the two policies change is what a pin hands out:
///
/// * `REFREEZE_ON_READ = true` ([`GeoBrowsingService`], read-heavy): the
///   first read after a batch of writes folds the delta into a fresh
///   frozen cube and publishes a new epoch, so steady-state browses
///   sweep a pure frozen prefix cube;
/// * `REFREEZE_ON_READ = false` ([`DynamicGeoBrowsingService`],
///   write-heavy feeds): a pin takes the current snapshot as is (frozen
///   cube + delta view), so writes never trigger a refreeze and every
///   read sees every write applied before it, at `O(delta)` extra cost
///   per tiling.
///
/// Everything else — writes, telemetry, the engine-backed browse path and
/// every request knob — is the [`BrowseSession`] API, which is how the
/// `geobrowse serve` front door and the conformance harness drive it.
/// Every browse is recorded into the service's always-on [`Recorder`]
/// (read it with [`BrowseSession::telemetry`]) unless disabled per
/// request.
pub struct BrowsingService<const REFREEZE_ON_READ: bool> {
    grid: Grid,
    snapper: Snapper,
    live: Arc<LiveEulerHistogram>,
    recorder: Arc<Recorder>,
}

/// The read-heavy profile: refreeze on the first read after a write.
pub type GeoBrowsingService = BrowsingService<true>;

/// The write-heavy profile: pin the current snapshot, never refreeze.
pub type DynamicGeoBrowsingService = BrowsingService<false>;

impl<const REFREEZE_ON_READ: bool> BrowsingService<REFREEZE_ON_READ> {
    /// An empty service over `grid`.
    pub fn new(grid: Grid) -> Self {
        Self::from_live(Arc::new(LiveEulerHistogram::new(grid)))
    }

    /// Bulk-loads a service from raw MBRs (a slice or a stream), each
    /// snapped as it is folded into the build: epoch 1 holds them all
    /// frozen at version `N`, the state `N` inserts reach.
    pub fn with_objects<I>(grid: Grid, rects: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Rect>,
    {
        let snapper = Snapper::new(grid);
        let snapped = rects.into_iter().map(|r| snapper.snap(r.borrow()));
        Self::preloaded(EulerHistogram::build(grid, snapped))
    }

    /// A service over a bulk-built preload, wrapped at epoch 1 / version
    /// `N` ([`LiveEulerHistogram::preloaded`]).
    pub fn preloaded(base: EulerHistogram) -> Self {
        Self::from_live(Arc::new(LiveEulerHistogram::preloaded(base)))
    }

    /// A service over an existing shared substrate — how a durable store
    /// (whose writes must go through its WAL) shares its histogram with
    /// the read path.
    pub fn from_live(live: Arc<LiveEulerHistogram>) -> Self {
        let grid = live.grid();
        BrowsingService {
            grid,
            snapper: Snapper::new(grid),
            live,
            recorder: Recorder::shared(),
        }
    }

    /// Applies one write, returning the version it produced; a refusal
    /// is an `InvalidInput` error.
    fn write(&self, op: DeltaOp) -> std::io::Result<u64> {
        self.live
            .apply(op)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
    }
}

impl<const REFREEZE_ON_READ: bool> BrowseSession for BrowsingService<REFREEZE_ON_READ> {
    fn session_name(&self) -> &'static str {
        if REFREEZE_ON_READ {
            "GeoBrowsingService"
        } else {
            "DynamicGeoBrowsingService"
        }
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

    /// Pins under the service's read policy: refreeze if stale, or take
    /// the current snapshot (frozen cube + delta view) as is.
    fn pin_session(&self) -> PinnedSession {
        let snap = if REFREEZE_ON_READ {
            self.live.refreeze_if_stale()
        } else {
            self.live.pin()
        };
        let (epoch, version) = (snap.epoch(), snap.version());
        PinnedSession::new(Arc::new(LiveSEuler::new(snap)), epoch, version)
    }

    /// Inserts `rect`; an insert at the object bound is ignored. Front
    /// doors should call [`BrowseSession::try_insert`], which reports it.
    fn insert(&self, rect: &Rect) {
        let _ = self.try_insert(rect);
    }

    /// Removes `rect`; a remove while the service is empty is ignored.
    /// Front doors should call [`BrowseSession::try_remove`], which
    /// reports it.
    fn remove(&self, rect: &Rect) {
        let _ = self.try_remove(rect);
    }

    /// Inserts `rect` and acknowledges the version this insert produced
    /// (not whatever version a concurrent writer has since reached), or
    /// refuses with an `InvalidInput` error at the object bound, leaving
    /// the service untouched.
    fn try_insert(&self, rect: &Rect) -> std::io::Result<u64> {
        self.write(DeltaOp::insert(self.snapper.snap(rect)))
    }

    /// Removes `rect`, or refuses with an `InvalidInput` error when the
    /// service holds no object, leaving it untouched.
    fn try_remove(&self, rect: &Rect) -> std::io::Result<u64> {
        self.write(DeltaOp::delete(self.snapper.snap(rect)))
    }

    fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrowseRequest;
    use euler_core::Level2Estimator;
    use euler_grid::{DataSpace, Tiling};

    fn grid() -> Grid {
        Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 8.0, 8.0).unwrap()), 8, 8).unwrap()
    }

    /// Both policies answer the same browse after the same writes — one
    /// from a refrozen cube, the other from a frozen cube plus delta.
    #[test]
    fn agrees_with_static_service() {
        let rects: Vec<Rect> = (0..60)
            .map(|i| {
                let x = 0.1 + (i % 7) as f64;
                let y = 0.3 + (i % 6) as f64 * 1.1;
                Rect::new(x, y, (x + 0.4 * (i % 4) as f64).min(8.0), y + 0.5).unwrap()
            })
            .collect();
        let refreeze = GeoBrowsingService::with_objects(grid(), &rects);
        let pin_current = DynamicGeoBrowsingService::new(grid());
        for r in &rects {
            pin_current.insert(r);
        }
        let tiling = Tiling::new(grid().full(), 4, 3).unwrap();
        let a = refreeze.browse(&tiling, &BrowseRequest::new());
        let b = pin_current.browse(&tiling, &BrowseRequest::new());
        assert_eq!(a.counts(), b.counts());
    }

    /// Refreeze-on-read: writes accumulate in the delta; the first read
    /// folds them and publishes a new epoch, which tags every batch
    /// answered from it — visible both on the service and in its
    /// telemetry.
    #[test]
    fn browses_are_answered_from_published_epochs() {
        let svc = GeoBrowsingService::new(grid());
        assert_eq!(svc.epoch(), 1);
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        assert_eq!(svc.epoch(), 1, "writes alone do not refreeze");

        let tiling = Tiling::new(svc.grid().full(), 4, 4).unwrap();
        svc.browse(&tiling, &BrowseRequest::new());
        assert_eq!(svc.epoch(), 2, "first read after a write refreezes");
        assert_eq!(svc.telemetry().last_epoch, 2);

        // Read-only browses reuse the epoch…
        svc.browse(&tiling, &BrowseRequest::new());
        assert_eq!(svc.epoch(), 2);
        // …and the next write/read cycle publishes the next one.
        svc.insert(&Rect::new(5.2, 5.2, 5.8, 5.8).unwrap());
        svc.browse(&tiling, &BrowseRequest::new());
        assert_eq!(svc.epoch(), 3);
        assert_eq!(svc.telemetry().last_epoch, 3);
    }

    /// Pin-current: writes bump the version, never the epoch — nothing
    /// refreezes on read, so the cacheable stamp is the version.
    #[test]
    fn versions_advance_epochs_do_not() {
        let svc = DynamicGeoBrowsingService::new(grid());
        let (e0, v0) = (svc.epoch(), svc.version());
        svc.insert(&Rect::new(1.2, 1.2, 2.8, 2.8).unwrap());
        let tiling = Tiling::new(grid().full(), 2, 2).unwrap();
        svc.browse(&tiling, &BrowseRequest::new());
        assert_eq!(svc.epoch(), e0, "pin-current reads never refreeze");
        assert_eq!(svc.version(), v0 + 1, "every write bumps the version");
    }

    /// Regression for the old read-lock-across-the-tiling design: a
    /// browse in flight must never block a concurrent insert. The pinned
    /// read path holds no lock, which the test proves *deterministically*
    /// by interleaving writes into a browse from the same thread — under
    /// any lock-held read path this would deadlock (or require a
    /// reentrant lock), not merely slow down.
    #[test]
    fn a_browse_never_blocks_a_concurrent_insert() {
        let svc = DynamicGeoBrowsingService::new(grid());
        svc.insert(&Rect::new(1.2, 1.2, 1.8, 1.8).unwrap());
        let tiling = Tiling::new(grid().full(), 4, 4).unwrap();

        // A reader mid-browse: the snapshot is pinned, tiles are being
        // answered…
        let pinned = svc.pin_session();
        let mut counts = Vec::new();
        for (i, (_, tile)) in tiling.iter().enumerate() {
            counts.push(pinned.estimator().estimate(&tile).clamped());
            // …while inserts land between tiles, from the very same
            // thread. No deadlock, no torn reads.
            svc.insert(&Rect::new(2.0 + i as f64 * 0.25, 2.0, 7.0, 6.0).unwrap());
        }

        // The browse answered entirely from its pinned snapshot (1
        // object), and every interleaved write landed.
        let total: i64 = counts.iter().map(|c| c.intersecting()).sum();
        assert_eq!(total, 1, "pinned view is isolated from mid-browse writes");
        assert_eq!(svc.len(), 1 + tiling.len() as u64);
        // A fresh browse sees all of them.
        let fresh = svc.browse(&tiling, &BrowseRequest::new());
        assert!(fresh.counts().iter().any(|c| c.intersecting() > 1));
    }

    /// Concurrent writers each acknowledge the version their own insert
    /// produced: across threads the acked versions are exactly `1..=N`,
    /// each seen once.
    #[test]
    fn concurrent_try_inserts_ack_their_own_versions() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 200;
        let sessions: [Box<dyn BrowseSession>; 2] = [
            Box::new(GeoBrowsingService::new(grid())),
            Box::new(DynamicGeoBrowsingService::new(grid())),
        ];
        for svc in sessions {
            let start = std::sync::Barrier::new(THREADS);
            let mut acks: Vec<u64> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (svc, start) = (&svc, &start);
                        s.spawn(move || {
                            start.wait();
                            (0..PER_THREAD)
                                .map(|i| {
                                    let x = (t + i) as f64 % 7.0 + 0.2;
                                    svc.try_insert(&Rect::new(x, 1.2, x + 0.5, 1.8).unwrap())
                                        .unwrap()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap())
                    .collect()
            });
            acks.sort_unstable();
            let n = (THREADS * PER_THREAD) as u64;
            assert_eq!(acks, (1..=n).collect::<Vec<_>>(), "{}", svc.session_name());
            assert_eq!(svc.version(), n);
        }
    }

    /// Both policies refuse a remove past empty with a structured
    /// `InvalidInput` error, change nothing, and keep serving.
    #[test]
    fn try_remove_past_empty_is_an_invalid_input_error() {
        let r = Rect::new(1.2, 1.2, 1.8, 1.8).unwrap();
        let sessions: [Box<dyn BrowseSession>; 2] = [
            Box::new(GeoBrowsingService::new(grid())),
            Box::new(DynamicGeoBrowsingService::new(grid())),
        ];
        for svc in sessions {
            let err = svc.try_remove(&r).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("empty"), "{err}");
            svc.remove(&r);
            assert_eq!((svc.len(), svc.version()), (0, 0));
            assert_eq!(svc.try_insert(&r).unwrap(), 1);
            assert_eq!(svc.try_remove(&r).unwrap(), 2);
        }
    }
}
