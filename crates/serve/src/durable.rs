//! The durable session profile: a [`DurableLive`] store behind the
//! [`BrowseSession`] trait.
//!
//! Reads go through a [`DynamicGeoBrowsingService`] sharing the store's
//! live substrate (pin-current policy — a restart-transparent server
//! should answer from the newest state it acknowledged). Writes go
//! through the store, so every acknowledged insert/remove is in the WAL
//! before it is visible to any reader, and `sync`/`checkpoint` map to
//! the real durability operations instead of the in-memory no-ops.

use std::io;
use std::path::Path;
use std::sync::Arc;

use euler_browse::{BrowseSession, DynamicGeoBrowsingService, PinnedSession};
use euler_geom::Rect;
use euler_grid::{Grid, Snapper};
use euler_metrics::Recorder;
use euler_wal::{DurableConfig, DurableLive, RecoveryReport};

/// A crash-tolerant [`BrowseSession`]: WAL-backed writes, pin-current
/// reads.
pub struct DurableSession {
    store: DurableLive,
    reads: DynamicGeoBrowsingService,
    snapper: Snapper,
}

impl DurableSession {
    /// Opens (or creates) the durable store under `dir` and wraps it as
    /// a browse session. Returns the session and the recovery report —
    /// hosts should surface the report (replay counts, torn-tail
    /// warnings) to their operators.
    pub fn open(
        dir: &Path,
        grid: Grid,
        cfg: DurableConfig,
    ) -> Result<(DurableSession, RecoveryReport), euler_wal::WalError> {
        let (store, report) = DurableLive::open(dir, grid, cfg)?;
        let reads = DynamicGeoBrowsingService::from_live(store.live().clone());
        let snapper = Snapper::new(store.live().grid());
        Ok((
            DurableSession {
                store,
                reads,
                snapper,
            },
            report,
        ))
    }

    /// The underlying durable store.
    pub fn store(&self) -> &DurableLive {
        &self.store
    }
}

impl BrowseSession for DurableSession {
    fn session_name(&self) -> &'static str {
        "durable"
    }

    fn grid(&self) -> &Grid {
        self.reads.grid()
    }

    fn len(&self) -> u64 {
        self.store.len()
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn version(&self) -> u64 {
        self.store.version()
    }

    fn pin_session(&self) -> PinnedSession {
        self.reads.pin_session()
    }

    /// Best-effort infallible form: a WAL failure is swallowed (the
    /// store stays poisoned and fails fast thereafter). Front doors
    /// should call [`BrowseSession::try_insert`] and report the error.
    fn insert(&self, rect: &Rect) {
        let _ = self.try_insert(rect);
    }

    /// See [`DurableSession::insert`] — prefer the fallible form.
    fn remove(&self, rect: &Rect) {
        let _ = self.try_remove(rect);
    }

    fn try_insert(&self, rect: &Rect) -> io::Result<u64> {
        self.store.insert(&self.snapper.snap(rect))
    }

    fn try_remove(&self, rect: &Rect) -> io::Result<u64> {
        self.store.remove(&self.snapper.snap(rect))
    }

    fn sync(&self) -> io::Result<()> {
        self.store.sync()
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, u64)>> {
        self.store.checkpoint().map(Some)
    }

    fn recorder(&self) -> &Arc<Recorder> {
        self.reads.recorder()
    }
}
