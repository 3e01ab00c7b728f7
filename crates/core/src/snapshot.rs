//! The epoch-snapshot ingest substrate: an LSM-style two-tier live Euler
//! histogram — the workspace's one update path.
//!
//! ## Why
//!
//! The static pipeline ([`crate::EulerHistogram`] →
//! [`crate::EulerHistogram::freeze`]) answers in O(1) but pays
//! `O(buckets)` per snapshot, and a mutable structure shared between
//! writers and readers needs a lock — one held across a whole tiling
//! stalls writers on every browse. This module keeps O(1)-style reads
//! without that lock: reads are served from an immutable [`LiveSnapshot`]
//! (no lock held while answering), writes go to a short list of signed
//! ops, and a periodic **refreeze** folds that delta back into a fresh
//! frozen cube.
//!
//! ## Structure
//!
//! ```text
//!            writers (mutex-serialized)               readers
//!   insert/remove ──► tail ops (Vec + persistent list)
//!                     │ every `seal_every` ops            pin() ──► Arc<LiveSnapshot>
//!                     ▼                                      epoch e, version v
//!                  sealed runs [ops₀, ops₁, …]               ├─ frozen prefix cube
//!                     │ every `refreeze_every` ops           ├─ sealed op runs (shared)
//!                     ▼                                      └─ tail ops (persistent list)
//!                  refreeze: next cube = old cube
//!                  + prefix(delta), publish epoch e+1
//! ```
//!
//! The delta holds no bucket arrays at all: every run and the tail are
//! plain [`DeltaOp`] lists, and each op's contribution to a signed window
//! sum has a closed form (its footprint is a rank-1 sign pattern). The
//! delta never exceeds `refreeze_every` ops, so a delta read is
//! `O(delta)` with a small constant, a write is one push and a cons node,
//! and a seal moves a `Vec`. A refreeze folds the runs and then the tail
//! ops, so each op is stored once.
//!
//! Nothing but the frozen cube holds the folded state: prefix sums are
//! linear, so a refreeze builds the next cube from the current one plus
//! the prefix sums of the delta's signed buckets
//! ([`FrozenEulerHistogram::with_signed_batch`]), in one scratch array
//! that becomes the next cube. Between refreezes a live histogram holds
//! one grid-sized array, and a refreeze needs only a snapshot's cube and
//! delta — no writer-owned bucket array.
//!
//! Every write publishes a fresh [`LiveSnapshot`] (version `v+1`) that
//! shares all heavy state with its predecessor: the frozen cube and the
//! sealed runs by `Arc`, the unsealed tail as a persistent cons list
//! (O(1) push). A reader [`LiveEulerHistogram::pin`]s the current snapshot
//! — one brief read-lock acquisition — and then answers any number of
//! `signed_sum`s, estimates and tilings without further synchronization,
//! as `frozen + Σ runs + Σ tail`. A refreeze never blocks readers: they
//! keep their pinned snapshot; only the *next* pin sees the new epoch.
//!
//! ## Consistency guarantee
//!
//! Writes are serialized, so the write log has a single total order, and
//! snapshot `version` counts applied writes. Every quantity a snapshot
//! answers is **bit-identical** to a frozen histogram rebuilt from the
//! first `version` write-log entries — the concurrent-interleaving law
//! the conformance suite enforces at several thread counts. Epoch bumps
//! (refreezes) change the representation, never the answer.
use std::borrow::Borrow;
use std::sync::{Arc, Mutex, RwLock};

use euler_cube::{Cell, CubeBuffer};
use euler_grid::{Grid, GridRect, SnappedRect, Tiling};

use crate::sweep::{sweep_s_euler, DeltaScatter, TilingPlan};
use crate::{
    s_euler_counts, EulerHistogram, EulerSource, FrozenEulerHistogram, Level2Estimator,
    RelationCounts, MAX_OBJECTS,
};

/// Default number of unsealed tail ops before they are sealed into a run
/// (keeps the persistent list each snapshot walks short).
pub const DEFAULT_SEAL_EVERY: usize = 64;

/// Default number of delta ops before an automatic refreeze folds the
/// delta into a fresh frozen cube.
pub const DEFAULT_REFREEZE_EVERY: usize = 1024;

/// A consistent checkpoint of a [`LiveEulerHistogram`]: the frozen cube
/// serialized with [`FrozenEulerHistogram::to_bytes_compressed`] (the
/// bytes [`crate::EulerHistogram::to_bytes_compressed`] writes for the
/// same buckets) plus
/// the exact `(epoch, version)` write-log position it captures. Produced
/// by [`LiveEulerHistogram::checkpoint_image`]; consumed by the
/// durability layer, which pairs it with a WAL suffix and restores via
/// [`LiveEulerHistogram::restore`].
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// Epoch at the moment of the checkpoint (after folding the delta).
    pub epoch: u64,
    /// Write-log prefix length the image covers.
    pub version: u64,
    /// The compressed persist-codec encoding of the frozen cube.
    pub bytes: Vec<u8>,
}

/// A write the live histogram refuses: it is not applied and the version
/// does not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRefused {
    /// A remove while the live histogram holds no object.
    RemoveFromEmpty,
    /// An insert at [`MAX_OBJECTS`] live objects, or a write that could
    /// move a cube value past the 32-bit cell range.
    AtBound,
}

impl std::fmt::Display for WriteRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteRefused::RemoveFromEmpty => write!(f, "remove from empty live histogram"),
            WriteRefused::AtBound => write!(
                f,
                "live histogram at its bound of {MAX_OBJECTS} objects (32-bit cube cells)"
            ),
        }
    }
}

impl std::error::Error for WriteRefused {}

/// One write-log entry: a snapped footprint with its sign (`+1` insert,
/// `−1` delete).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaOp {
    /// The snapped object footprint.
    pub rect: SnappedRect,
    /// `+1` for an insert, `−1` for a delete.
    pub sign: i64,
}

impl DeltaOp {
    /// An insert op.
    pub fn insert(rect: SnappedRect) -> DeltaOp {
        DeltaOp { rect, sign: 1 }
    }

    /// A delete op.
    pub fn delete(rect: SnappedRect) -> DeltaOp {
        DeltaOp { rect, sign: -1 }
    }
}

/// Persistent cons list of unsealed tail ops: every write pushes one node
/// in O(1); snapshots share suffixes structurally.
#[derive(Debug)]
struct TailNode {
    op: DeltaOp,
    rest: Option<Arc<TailNode>>,
}

/// A sealed run: `seal_every` consecutive tail ops moved into one
/// contiguous, immutable list that every later snapshot shares by `Arc`.
/// Reads sum its ops in closed form, exactly like the tail.
#[derive(Debug)]
struct SealedRun {
    ops: Vec<DeltaOp>,
}

/// `alt(a, b)`: the signed-bucket sum `Σ_{i=a..=b} (−1)^i` of a run of
/// alternating Euler signs — `0` on an empty or even/odd-mismatched run,
/// else `(−1)^a`. With `a = max(window_lo, 2·c0)` and
/// `b = min(window_hi, 2·c1)` this is the per-axis factor of one object
/// footprint's contribution to a signed window sum (the footprint's
/// per-axis profile is exactly `(−1)^i` over `[2c0, 2c1]`).
#[inline]
fn alt(a: i64, b: i64) -> i64 {
    if a > b || (b - a).rem_euclid(2) != 0 {
        0
    } else if a.rem_euclid(2) == 0 {
        1
    } else {
        -1
    }
}

/// One op's exact contribution to `signed_sum(ex0..ex1, ey0..ey1)`,
/// in closed form (the footprint is a rank-1 sign pattern, so the 2-D sum
/// factors per axis).
#[inline]
fn op_signed_sum(op: &DeltaOp, ex0: i64, ey0: i64, ex1: i64, ey1: i64) -> i64 {
    let fx = alt(
        ex0.max(2 * op.rect.cx0() as i64),
        ex1.min(2 * op.rect.cx1() as i64),
    );
    if fx == 0 {
        return 0;
    }
    let fy = alt(
        ey0.max(2 * op.rect.cy0() as i64),
        ey1.min(2 * op.rect.cy1() as i64),
    );
    op.sign * fx * fy
}

/// An immutable point-in-time view of a [`LiveEulerHistogram`]: the
/// frozen prefix cube of the last refreeze plus the delta accumulated
/// since, queryable lock-free through [`EulerSource`].
///
/// Cloning the `Arc` a reader holds is the only way snapshots move;
/// nothing in here is ever mutated after publication.
#[derive(Debug)]
pub struct LiveSnapshot {
    epoch: u64,
    version: u64,
    frozen: Arc<FrozenEulerHistogram>,
    runs: Arc<Vec<Arc<SealedRun>>>,
    tail: Option<Arc<TailNode>>,
    /// Net object count of the delta (Σ signs over runs + tail).
    delta_count: i64,
    /// Total number of delta ops (runs + tail).
    delta_ops: usize,
}

impl LiveSnapshot {
    /// The refreeze generation this snapshot belongs to. Bumped by every
    /// refreeze (including empty-delta no-ops); starts at 1.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of write-log entries applied: this snapshot answers every
    /// query exactly as a frozen rebuild of the first `version()` writes.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of delta ops not yet folded into the frozen cube.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.delta_ops
    }

    /// The frozen prefix cube of the last refreeze.
    #[inline]
    pub fn frozen(&self) -> &Arc<FrozenEulerHistogram> {
        &self.frozen
    }

    /// Signed sum over a clipped Euler-index rectangle: the frozen cube's
    /// O(1) prefix lookup plus one closed-form term per delta op
    /// (`O(delta)`, at most `refreeze_every` ops).
    pub fn signed_sum(&self, ex0: i64, ey0: i64, ex1: i64, ey1: i64) -> i64 {
        if ex0 > ex1 || ey0 > ey1 {
            return 0;
        }
        let mut sum = self.frozen.signed_sum(ex0, ey0, ex1, ey1);
        self.for_each_delta_op(|op| sum += op_signed_sum(op, ex0, ey0, ex1, ey1));
        sum
    }

    /// Every delta op (sealed runs first, then the tail; order is
    /// irrelevant to the linear sums the callers compute).
    fn for_each_delta_op(&self, mut f: impl FnMut(&DeltaOp)) {
        for run in self.runs.iter() {
            for op in &run.ops {
                f(op);
            }
        }
        let mut node = self.tail.as_deref();
        while let Some(n) = node {
            f(&n.op);
            node = n.rest.as_deref();
        }
    }
}

impl EulerSource for LiveSnapshot {
    fn grid(&self) -> &Grid {
        self.frozen.grid()
    }

    fn object_count(&self) -> u64 {
        (self.frozen.object_count() as i64 + self.delta_count) as u64
    }

    fn inside_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64,
            2 * y0 as i64,
            2 * x1 as i64 - 2,
            2 * y1 as i64 - 2,
        )
    }

    fn closed_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        debug_assert!(x0 < x1 && y0 < y1);
        self.signed_sum(
            2 * x0 as i64 - 1,
            2 * y0 as i64 - 1,
            2 * x1 as i64 - 1,
            2 * y1 as i64 - 1,
        )
    }

    fn total(&self) -> i64 {
        self.frozen.total() + self.delta_count
    }

    fn inside_closed_sums(&self, q: &GridRect) -> (i64, i64) {
        // Frozen half of both estimator windows in one batched
        // eight-corner gather, then a single delta walk adding each
        // op's contribution to both windows — instead of two full
        // `signed_sum` passes over runs and tail.
        let (mut n_ii, mut closed) = self.frozen.inside_closed_sums(q);
        if self.delta_ops == 0 {
            return (n_ii, closed);
        }
        let (ix0, iy0) = (2 * q.x0 as i64, 2 * q.y0 as i64);
        let (ix1, iy1) = (2 * q.x1 as i64 - 2, 2 * q.y1 as i64 - 2);
        let (cx0, cy0) = (ix0 - 1, iy0 - 1);
        let (cx1, cy1) = (ix1 + 1, iy1 + 1);
        self.for_each_delta_op(|op| {
            n_ii += op_signed_sum(op, ix0, iy0, ix1, iy1);
            closed += op_signed_sum(op, cx0, cy0, cx1, cy1);
        });
        (n_ii, closed)
    }
}

/// Writer-side state, serialized under one mutex. Readers never take it.
/// It holds no bucket array: everything folded so far is `frozen`.
#[derive(Debug)]
struct WriterState {
    /// Number of delta ops since the last refreeze (runs + tail).
    delta_ops: usize,
    /// The unsealed tail ops in write order (the next run's contents).
    tail_ops: Vec<DeltaOp>,
    runs: Arc<Vec<Arc<SealedRun>>>,
    tail: Option<Arc<TailNode>>,
    frozen: Arc<FrozenEulerHistogram>,
    /// Bounds on the least and greatest value of `frozen`'s cube. Each
    /// delta op moves any prefix value by at most one (down for a
    /// remove, up for an insert), so a fold widens the bounds by its
    /// delta instead of scanning the new cube; `admit` scans only when
    /// widened bounds would refuse a write.
    cube_range: (i64, i64),
    /// Whether `cube_range` is exact: scanned from `frozen`'s cube.
    range_scanned: bool,
    epoch: u64,
    version: u64,
    delta_count: i64,
}

impl WriterState {
    /// Whether `op` may be applied: a remove needs a live object, and no
    /// write may take the live count past [`MAX_OBJECTS`] or let the
    /// next fold store a value past the cell range. The count check is
    /// the bound a consistent histogram meets (its prefix values lie in
    /// `[0, N]`); the cube check also covers removes of objects never
    /// inserted, which drift values outside `[0, N]`.
    fn admit(&mut self, op: &DeltaOp) -> Result<(), WriteRefused> {
        let live = self.frozen.object_count() as i64 + self.delta_count;
        if op.sign < 0 && live <= 0 {
            return Err(WriteRefused::RemoveFromEmpty);
        }
        if op.sign > 0 && live >= MAX_OBJECTS as i64 {
            return Err(WriteRefused::AtBound);
        }
        if !self.cube_fits(op) && !self.range_scanned {
            self.cube_range = self.frozen.cum().value_range();
            self.range_scanned = true;
        }
        if !self.cube_fits(op) {
            return Err(WriteRefused::AtBound);
        }
        Ok(())
    }

    /// Whether the next fold's values stay in the cell range with `op`
    /// in the delta, by `cube_range`.
    fn cube_fits(&self, op: &DeltaOp) -> bool {
        let (inserts, removes) = self.delta_inserts_removes();
        let (lo, hi) = self.cube_range;
        if op.sign < 0 {
            lo - removes > i64::from(Cell::MIN)
        } else {
            hi + inserts < i64::from(Cell::MAX)
        }
    }

    /// Inserts and removes in the delta.
    fn delta_inserts_removes(&self) -> (i64, i64) {
        let ops = self.delta_ops as i64;
        ((ops + self.delta_count) / 2, (ops - self.delta_count) / 2)
    }

    fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::new(LiveSnapshot {
            epoch: self.epoch,
            version: self.version,
            frozen: Arc::clone(&self.frozen),
            runs: Arc::clone(&self.runs),
            tail: self.tail.clone(),
            delta_count: self.delta_count,
            delta_ops: self.delta_ops,
        })
    }
}

/// The live histogram: a [`LiveEulerHistogram`] accepts O(1)
/// inserts/deletes from any thread, serves lock-free reads through pinned
/// [`LiveSnapshot`]s, and periodically refreezes the accumulated delta
/// into a fresh frozen prefix cube, publishing a new epoch without ever
/// blocking readers.
///
/// ```
/// use euler_core::{LiveEulerHistogram, EulerSource};
/// use euler_geom::Rect;
/// use euler_grid::{DataSpace, Grid, GridRect, Snapper};
///
/// let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
/// let live = LiveEulerHistogram::new(grid);
/// let snapper = Snapper::new(grid);
/// live.insert(&snapper.snap(&Rect::new(10.0, 10.0, 20.0, 20.0).unwrap()));
/// let snap = live.pin(); // immutable view; later writes don't affect it
/// live.insert(&snapper.snap(&Rect::new(200.0, 90.0, 210.0, 95.0).unwrap()));
/// assert_eq!(snap.object_count(), 1);
/// assert_eq!(live.pin().object_count(), 2);
/// let refrozen = live.refreeze(); // fold the delta; epoch 2
/// assert_eq!(refrozen.epoch(), 2);
/// assert_eq!(refrozen.delta_len(), 0);
/// ```
#[derive(Debug)]
pub struct LiveEulerHistogram {
    writer: Mutex<WriterState>,
    /// The published snapshot. Writers replace the `Arc` under a brief
    /// write lock; readers clone it under a brief read lock — no lock is
    /// ever held while *answering* queries.
    current: RwLock<Arc<LiveSnapshot>>,
    seal_every: usize,
    refreeze_every: Option<usize>,
}

impl LiveEulerHistogram {
    /// An empty live histogram with default seal/refreeze thresholds.
    pub fn new(grid: Grid) -> LiveEulerHistogram {
        LiveEulerHistogram::with_config(grid, DEFAULT_SEAL_EVERY, Some(DEFAULT_REFREEZE_EVERY))
    }

    /// An empty live histogram with explicit thresholds: the tail is
    /// sealed into a run every `seal_every` ops, and the delta is folded
    /// into a fresh frozen cube every `refreeze_every` ops (`None`
    /// disables automatic refreeze — callers drive it explicitly).
    pub fn with_config(
        grid: Grid,
        seal_every: usize,
        refreeze_every: Option<usize>,
    ) -> LiveEulerHistogram {
        LiveEulerHistogram::from_base(EulerHistogram::new(grid), seal_every, refreeze_every)
    }

    /// Bulk-builds from snapped objects (a slice or a stream; see
    /// [`EulerHistogram::build`]) and wraps the result as
    /// [`LiveEulerHistogram::preloaded`] does.
    pub fn with_objects<I>(grid: Grid, objects: I) -> LiveEulerHistogram
    where
        I: IntoIterator,
        I::Item: Borrow<SnappedRect>,
    {
        LiveEulerHistogram::preloaded(EulerHistogram::build(grid, objects))
    }

    /// Wraps a bulk-built preload: epoch 1 holds its `N` objects frozen,
    /// stamped version `N` — as if they were writes `1..=N`, the way a
    /// durable store seeds its preload — with the default thresholds.
    pub fn preloaded(base: EulerHistogram) -> LiveEulerHistogram {
        let version = base.object_count();
        LiveEulerHistogram::restore(
            base,
            DEFAULT_SEAL_EVERY,
            Some(DEFAULT_REFREEZE_EVERY),
            1,
            version,
        )
    }

    /// Wraps an already-built mutable histogram as epoch 1's frozen cube,
    /// freezing it in place ([`EulerHistogram::into_frozen`]).
    pub fn from_base(
        base: EulerHistogram,
        seal_every: usize,
        refreeze_every: Option<usize>,
    ) -> LiveEulerHistogram {
        assert!(seal_every > 0, "seal_every must be positive");
        let frozen = Arc::new(base.into_frozen());
        let state = WriterState {
            delta_ops: 0,
            tail_ops: Vec::new(),
            runs: Arc::new(Vec::new()),
            tail: None,
            cube_range: frozen.cum().value_range(),
            range_scanned: true,
            frozen,
            epoch: 1,
            version: 0,
            delta_count: 0,
        };
        let current = RwLock::new(state.snapshot());
        LiveEulerHistogram {
            writer: Mutex::new(state),
            current,
            seal_every,
            refreeze_every,
        }
    }

    /// The grid summarized.
    pub fn grid(&self) -> Grid {
        *self.pin().grid()
    }

    /// Live object count (frozen + delta).
    pub fn len(&self) -> u64 {
        self.pin().object_count()
    }

    /// Whether the live count is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current epoch (bumped by every refreeze; starts at 1).
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Number of writes applied so far.
    pub fn version(&self) -> u64 {
        self.pin().version()
    }

    /// Pins the current snapshot: one brief read-lock acquisition, then
    /// the returned view answers queries with no synchronization at all.
    pub fn pin(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Inserts a snapped object: one push and a cons node onto the
    /// delta, then an O(1) snapshot publication.
    ///
    /// # Panics
    ///
    /// At the object bound ([`WriteRefused::AtBound`]); front doors call
    /// [`Self::apply`], which reports it.
    pub fn insert(&self, o: &SnappedRect) {
        if let Err(e) = self.apply(DeltaOp::insert(*o)) {
            panic!("insert refused: {e}");
        }
    }

    /// Removes a previously inserted object (the histogram is a linear
    /// sketch, so removal is exact) and returns the new version; refused
    /// with [`WriteRefused::RemoveFromEmpty`] when the live count is zero.
    pub fn remove(&self, o: &SnappedRect) -> Result<u64, WriteRefused> {
        self.apply(DeltaOp::delete(*o))
    }

    /// Whether [`Self::apply`] would take `op` now: the same check, for a
    /// caller that must log a write before applying it. Only a caller
    /// that serializes its writes (as a durable store does under its log
    /// lock) can rely on the answer.
    pub fn admit(&self, op: &DeltaOp) -> Result<(), WriteRefused> {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admit(op)
    }

    /// Applies one signed write-log entry and returns the new version.
    /// Refused — checked under the writer lock, leaving the histogram
    /// untouched — with [`WriteRefused::RemoveFromEmpty`] for a delete
    /// while the live count is zero and [`WriteRefused::AtBound`] for a
    /// write past the object bound ([`MAX_OBJECTS`]).
    pub fn apply(&self, op: DeltaOp) -> Result<u64, WriteRefused> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.admit(&op)?;
        w.tail_ops.push(op);
        w.tail = Some(Arc::new(TailNode {
            op,
            rest: w.tail.take(),
        }));
        w.delta_ops += 1;
        w.delta_count += op.sign;
        w.version += 1;
        if w.tail_ops.len() >= self.seal_every {
            Self::seal(&mut w);
        }
        match self.refreeze_every {
            Some(limit) if w.delta_ops >= limit => Self::refreeze_locked(&mut w),
            _ => {}
        }
        self.publish(&w);
        Ok(w.version)
    }

    /// Moves the tail ops into an immutable sealed run.
    fn seal(w: &mut WriterState) {
        let ops = std::mem::take(&mut w.tail_ops);
        let mut runs: Vec<Arc<SealedRun>> = w.runs.as_ref().clone();
        runs.push(Arc::new(SealedRun { ops }));
        w.runs = Arc::new(runs);
        w.tail = None;
    }

    /// Folds the entire delta into the next frozen cube — the current
    /// cube plus the prefix sums of the delta — and bumps the epoch. An
    /// empty delta reuses the previous frozen cube (a pure epoch bump).
    fn refreeze_locked(w: &mut WriterState) {
        if w.delta_ops > 0 {
            let runs = w.runs.iter().flat_map(|run| &run.ops);
            let ops = runs.chain(&w.tail_ops).map(|op| (&op.rect, op.sign));
            w.frozen = Arc::new(w.frozen.with_signed_batch(ops));
            let (inserts, removes) = w.delta_inserts_removes();
            let (lo, hi) = w.cube_range;
            w.cube_range = (lo - removes, hi + inserts);
            w.range_scanned = false;
            w.tail_ops.clear();
            w.runs = Arc::new(Vec::new());
            w.tail = None;
            w.delta_ops = 0;
            w.delta_count = 0;
        }
        w.epoch += 1;
    }

    /// Folds the current delta into a fresh frozen cube and publishes the
    /// next epoch. Pinned readers are untouched; they keep their snapshot.
    /// Returns the newly published snapshot.
    pub fn refreeze(&self) -> Arc<LiveSnapshot> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        Self::refreeze_locked(&mut w);
        self.publish(&w)
    }

    /// Takes a consistent durability checkpoint: folds any pending delta
    /// (bumping the epoch, exactly like [`LiveEulerHistogram::refreeze`])
    /// and serializes the frozen cube with the compressed persist codec
    /// ([`FrozenEulerHistogram::to_bytes_compressed`]),
    /// all under the writer lock so the image names one exact write-log
    /// prefix. Restoring the image via [`LiveEulerHistogram::restore`]
    /// and replaying write-log entries `> version` reproduces the live
    /// state bit-for-bit. An already-clean delta produces no epoch bump.
    pub fn checkpoint_image(&self) -> CheckpointImage {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if w.delta_ops > 0 {
            Self::refreeze_locked(&mut w);
            self.publish(&w);
        }
        CheckpointImage {
            epoch: w.epoch,
            version: w.version,
            bytes: w.frozen.to_bytes_compressed(),
        }
    }

    /// Restores a live histogram from a durability checkpoint: like
    /// [`LiveEulerHistogram::from_base`], but resuming the `epoch` and
    /// `version` counters the checkpoint recorded instead of restarting
    /// at epoch 1 / version 0 — so a write-ahead log replayed on top
    /// stays version-aligned (log record N ↔ write-log version N).
    pub fn restore(
        base: EulerHistogram,
        seal_every: usize,
        refreeze_every: Option<usize>,
        epoch: u64,
        version: u64,
    ) -> LiveEulerHistogram {
        let live = LiveEulerHistogram::from_base(base, seal_every, refreeze_every);
        {
            let mut w = live.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.epoch = epoch.max(1);
            w.version = version;
            live.publish(&w);
        }
        live
    }

    /// Refreezes only if the delta is nonempty, returning the (then
    /// delta-free) current snapshot — the freeze-on-read entry point.
    pub fn refreeze_if_stale(&self) -> Arc<LiveSnapshot> {
        let snap = self.pin();
        if snap.delta_len() == 0 {
            return snap;
        }
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the writer lock: a racing refreeze may have won.
        if w.delta_ops == 0 {
            drop(w);
            return self.pin();
        }
        Self::refreeze_locked(&mut w);
        self.publish(&w)
    }

    /// Publishes the writer's current state as the snapshot readers pin.
    fn publish(&self, w: &WriterState) -> Arc<LiveSnapshot> {
        let snap = w.snapshot();
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&snap);
        snap
    }
}

/// Per-axis delta profile of one op over a tiling's closed windows: the
/// closed window of a tile column `[x0, x1]` sees per-axis factor `+1`
/// when the op's cells are contained in the column's cells, `−1` when the
/// op spans strictly across both column boundaries, else `0` — so the
/// nonzero tiles form either one `+1` tile or one contiguous `−1` run.
///
/// `bounds` are the `k + 1` tile-boundary grid lines; returns
/// `(factor, first_tile, last_tile)`.
fn closed_span(bounds: &[usize], c0: usize, c1: usize) -> Option<(i64, usize, usize)> {
    let k = bounds.len() - 1;
    // Contained: the unique tile t with bounds[t] <= c0 and c1 < bounds[t+1].
    let p = bounds[..k].partition_point(|&b| b <= c0);
    if p > 0 {
        let t = p - 1;
        if c1 < bounds[t + 1] {
            return Some((1, t, t));
        }
    }
    // Spanning: tiles with bounds[t] > c0 and bounds[t+1] <= c1.
    let lo = bounds[..k].partition_point(|&b| b <= c0);
    let hi = bounds[1..].partition_point(|&b| b <= c1);
    if lo < hi {
        return Some((-1, lo, hi - 1));
    }
    None
}

/// Per-axis delta profile over a tiling's inside windows: factor `+1` on
/// every tile column whose cells intersect the op's cells (a contiguous
/// run), else `0`.
fn inside_span(bounds: &[usize], c0: usize, c1: usize) -> Option<(usize, usize)> {
    let k = bounds.len() - 1;
    let lo = bounds[1..].partition_point(|&b| b <= c0);
    let hi = bounds[..k].partition_point(|&b| b <= c1);
    if lo < hi {
        Some((lo, hi - 1))
    } else {
        None
    }
}

/// S-EulerApprox over a pinned [`LiveSnapshot`]: the estimator the browse
/// services hand to the batch engine. Holding it pins the snapshot — all
/// answers come from one epoch, which [`Level2Estimator::epoch`] reports.
///
/// A tiling is the frozen tier's fused S-EulerApprox sweep plus one delta
/// scatter over the whole tile grid, built once per tiling in
/// `O(delta + tiles)`: each op's per-tile contribution factors into
/// contiguous per-axis runs (see the `closed_span`/`inside_span`
/// internals), so one difference-array rectangle add per op per window
/// kind replaces a per-(tile, op) loop. The sweep adds each scattered
/// row to the frozen window sums before the shared finish, so the result
/// is bit-identical to the per-tile estimate loop, preserving the
/// workspace's sweep-equivalence law.
#[derive(Debug, Clone)]
pub struct LiveSEuler {
    snap: Arc<LiveSnapshot>,
}

impl LiveSEuler {
    /// Wraps a pinned snapshot.
    pub fn new(snap: Arc<LiveSnapshot>) -> LiveSEuler {
        LiveSEuler { snap }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<LiveSnapshot> {
        &self.snap
    }

    /// The pinned delta scattered over `plan`'s tile grid, or `None` for
    /// an empty delta.
    fn scatter(&self, plan: &TilingPlan) -> Option<DeltaScatter> {
        if self.snap.delta_len() == 0 {
            return None;
        }
        let mut inside = CubeBuffer::zeros(plan.cols(), plan.rows());
        let mut closed = CubeBuffer::zeros(plan.cols(), plan.rows());
        let (xs, ys) = (plan.x_bounds(), plan.y_bounds());
        self.snap.for_each_delta_op(|op| {
            let (cx0, cx1) = (op.rect.cx0(), op.rect.cx1());
            let (cy0, cy1) = (op.rect.cy0(), op.rect.cy1());
            if let (Some((x0, x1)), Some((y0, y1))) =
                (inside_span(xs, cx0, cx1), inside_span(ys, cy0, cy1))
            {
                inside.add_rect_diff(x0, y0, x1, y1, op.sign);
            }
            if let (Some((vx, x0, x1)), Some((vy, y0, y1))) =
                (closed_span(xs, cx0, cx1), closed_span(ys, cy0, cy1))
            {
                closed.add_rect_diff(x0, y0, x1, y1, op.sign * vx * vy);
            }
        });
        inside.integrate();
        closed.integrate();
        Some(DeltaScatter { inside, closed })
    }
}

impl Level2Estimator for LiveSEuler {
    fn name(&self) -> &'static str {
        // Same algebra as `SEulerApprox`, and result tables key on the
        // estimator name — keep them unified.
        "S-EulerApprox"
    }

    fn estimate(&self, q: &GridRect) -> RelationCounts {
        s_euler_counts(&*self.snap, q)
    }

    fn object_count(&self) -> u64 {
        self.snap.object_count()
    }

    fn storage_cells(&self) -> u64 {
        let (ew, eh) = self.snap.grid().euler_dims();
        (ew * eh) as u64
    }

    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        self.estimate_tiling_total(t).0
    }

    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        let plan = TilingPlan::new(t);
        let delta = self.scatter(&plan);
        let size = self.snap.object_count() as i64;
        sweep_s_euler(
            self.snap.frozen(),
            &plan,
            size,
            self.snap.total(),
            delta.as_ref(),
        )
    }

    fn supports_sweep(&self) -> bool {
        true
    }

    fn epoch(&self) -> Option<u64> {
        Some(self.snap.epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Snapper};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid(nx: usize, ny: usize) -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    fn random_objects(g: &Grid, n: usize, seed: u64) -> Vec<SnappedRect> {
        let s = Snapper::new(*g);
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (g.nx() as f64, g.ny() as f64);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..w - 0.05);
                let y = rng.gen_range(0.0..h - 0.05);
                let ww = rng.gen_range(0.05..w);
                let hh = rng.gen_range(0.05..h);
                s.snap(&Rect::new(x, y, (x + ww).min(w), (y + hh).min(h)).unwrap())
            })
            .collect()
    }

    /// A seeded write log: inserts and (valid) deletes of earlier inserts.
    fn write_log(g: &Grid, n: usize, seed: u64) -> Vec<DeltaOp> {
        let pool = random_objects(g, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut alive: Vec<SnappedRect> = Vec::new();
        let mut log = Vec::with_capacity(n);
        for o in pool {
            if !alive.is_empty() && rng.gen_bool(0.3) {
                let i = rng.gen_range(0..alive.len());
                log.push(DeltaOp::delete(alive.swap_remove(i)));
            } else {
                alive.push(o);
                log.push(DeltaOp::insert(o));
            }
        }
        log
    }

    /// Frozen rebuild of a write-log prefix.
    fn rebuild(g: Grid, log: &[DeltaOp]) -> FrozenEulerHistogram {
        let mut h = EulerHistogram::new(g);
        h.apply_signed_batch(log.iter().map(|op| (&op.rect, op.sign)));
        h.freeze()
    }

    fn windows() -> Vec<(i64, i64, i64, i64)> {
        vec![
            (0, 0, 30, 22),
            (-1, -1, 9, 9),
            (4, 3, 4, 3),
            (3, 1, 17, 13),
            (-2, 5, 40, 5),
            (1, 1, 25, 19),
        ]
    }

    #[test]
    fn live_signed_sums_match_frozen_rebuild_at_every_version() {
        let g = grid(16, 12);
        let log = write_log(&g, 120, 1);
        // Tiny thresholds so the test crosses seal and refreeze boundaries.
        let live = LiveEulerHistogram::with_config(g, 5, Some(23));
        for (i, op) in log.iter().enumerate() {
            live.apply(*op).unwrap();
            let snap = live.pin();
            assert_eq!(snap.version(), i as u64 + 1);
            let reference = rebuild(g, &log[..=i]);
            for (ex0, ey0, ex1, ey1) in windows() {
                assert_eq!(
                    snap.signed_sum(ex0, ey0, ex1, ey1),
                    reference.signed_sum(ex0, ey0, ex1, ey1),
                    "window ({ex0},{ey0})..({ex1},{ey1}) at version {}",
                    i + 1
                );
            }
            assert_eq!(snap.object_count(), reference.object_count());
            assert_eq!(snap.total(), reference.total());
        }
    }

    #[test]
    fn one_cell_wide_grids_match_frozen_rebuilds() {
        for (nx, ny) in [(1, 1), (1, 7), (7, 1)] {
            let g = grid(nx, ny);
            let log = write_log(&g, 40, 9);
            let live = LiveEulerHistogram::with_config(g, 3, Some(17));
            for (i, op) in log.iter().enumerate() {
                live.apply(*op).unwrap();
                let snap = live.pin();
                let reference = rebuild(g, &log[..=i]);
                let (ew, eh) = (2 * nx as i64 - 1, 2 * ny as i64 - 1);
                for (ex0, ey0, ex1, ey1) in [(0, 0, ew - 1, eh - 1), (-1, -1, ew, eh), (1, 0, 1, 0)]
                {
                    assert_eq!(
                        snap.signed_sum(ex0, ey0, ex1, ey1),
                        reference.signed_sum(ex0, ey0, ex1, ey1),
                        "{nx}x{ny} window ({ex0},{ey0})..({ex1},{ey1}) at version {}",
                        i + 1
                    );
                }
                let est = LiveSEuler::new(snap);
                let frozen = crate::SEulerApprox::new(reference);
                let q = g.full();
                assert_eq!(est.estimate(&q), frozen.estimate(&q), "{nx}x{ny}");
            }
        }
    }

    #[test]
    fn estimates_match_frozen_s_euler() {
        let g = grid(14, 10);
        let log = write_log(&g, 90, 2);
        let live = LiveEulerHistogram::with_config(g, 7, None);
        for op in &log {
            live.apply(*op).unwrap();
        }
        let snap = live.pin();
        let reference = crate::SEulerApprox::new(rebuild(g, &log));
        for (x0, y0, x1, y1) in [(0, 0, 14, 10), (3, 2, 9, 8), (13, 9, 14, 10)] {
            let q = GridRect::unchecked(x0, y0, x1, y1);
            let est = LiveSEuler::new(Arc::clone(&snap));
            assert_eq!(est.estimate(&q), reference.estimate(&q), "{q}");
        }
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_later_writes() {
        let g = grid(8, 8);
        let s = Snapper::new(g);
        let live = LiveEulerHistogram::new(g);
        live.insert(&s.snap(&Rect::new(1.0, 1.0, 3.0, 3.0).unwrap()));
        let pinned = live.pin();
        live.insert(&s.snap(&Rect::new(4.0, 4.0, 6.0, 6.0).unwrap()));
        live.refreeze();
        live.remove(&s.snap(&Rect::new(1.0, 1.0, 3.0, 3.0).unwrap()))
            .unwrap();
        assert_eq!(pinned.object_count(), 1);
        assert_eq!(pinned.version(), 1);
        assert_eq!(live.pin().object_count(), 1);
        assert_eq!(live.pin().version(), 3);
    }

    #[test]
    fn empty_delta_refreeze_is_a_pure_epoch_bump() {
        let g = grid(6, 6);
        let s = Snapper::new(g);
        let live = LiveEulerHistogram::new(g);
        live.insert(&s.snap(&Rect::new(0.5, 0.5, 2.5, 2.5).unwrap()));
        let first = live.refreeze();
        assert_eq!(first.epoch(), 2);
        assert_eq!(first.delta_len(), 0);
        let second = live.refreeze();
        assert_eq!(second.epoch(), 3);
        assert_eq!(second.version(), first.version());
        // The frozen cube is literally reused, not rebuilt.
        assert!(Arc::ptr_eq(first.frozen(), second.frozen()));
        // refreeze_if_stale sees no delta and leaves the epoch alone.
        let third = live.refreeze_if_stale();
        assert_eq!(third.epoch(), 3);
    }

    #[test]
    fn insert_then_delete_in_one_delta_refreezes_to_the_base() {
        let g = grid(10, 10);
        let s = Snapper::new(g);
        let base = random_objects(&g, 40, 3);
        let live = LiveEulerHistogram::with_objects(g, &base);
        let ghost = s.snap(&Rect::new(2.2, 2.2, 7.7, 7.7).unwrap());
        live.insert(&ghost);
        live.remove(&ghost).unwrap();
        let snap = live.refreeze();
        assert_eq!(snap.epoch(), 2);
        let reference = EulerHistogram::build(g, &base).freeze();
        assert_eq!(*snap.frozen().as_ref(), reference);
        assert_eq!(snap.object_count(), 40);
    }

    #[test]
    fn back_to_back_refreezes_under_concurrent_readers() {
        // Seeded and replayable: EULER_SNAPSHOT_SEED overrides the seed.
        let seed = std::env::var("EULER_SNAPSHOT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xEF0C);
        let g = grid(12, 12);
        let log = write_log(&g, 400, seed);
        let live = Arc::new(LiveEulerHistogram::with_config(g, 8, None));
        let full = GridRect::unchecked(0, 0, 12, 12);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..4 {
                let live = Arc::clone(&live);
                readers.push(scope.spawn(move || {
                    let mut checks = 0u64;
                    loop {
                        let snap = live.pin();
                        // Internal consistency: the estimate algebra must
                        // balance no matter which epoch/version we caught.
                        let e = s_euler_counts(&*snap, &full);
                        assert_eq!(e.total(), snap.object_count() as i64);
                        assert_eq!(e.disjoint, 0);
                        checks += 1;
                        if snap.version() >= 400 {
                            return checks;
                        }
                        std::thread::yield_now();
                    }
                }));
            }
            for (i, op) in log.iter().enumerate() {
                live.apply(*op).unwrap();
                if i % 16 == 0 {
                    // Back-to-back refreezes while readers are pinning.
                    live.refreeze();
                    live.refreeze();
                }
            }
            for r in readers {
                assert!(r.join().unwrap() > 0);
            }
        });
        let reference = rebuild(g, &log);
        let snap = live.pin();
        assert_eq!(snap.object_count(), reference.object_count());
        for (ex0, ey0, ex1, ey1) in windows() {
            assert_eq!(
                snap.signed_sum(ex0, ey0, ex1, ey1),
                reference.signed_sum(ex0, ey0, ex1, ey1)
            );
        }
    }

    #[test]
    fn pin_never_blocks_writes_on_the_same_thread() {
        // The defining difference from a read-guard design: holding a
        // pinned snapshot cannot deadlock or delay a writer, even from
        // the very same thread.
        let g = grid(6, 6);
        let s = Snapper::new(g);
        let live = LiveEulerHistogram::new(g);
        let pinned = live.pin();
        live.insert(&s.snap(&Rect::new(1.0, 1.0, 2.0, 2.0).unwrap()));
        live.refreeze();
        assert_eq!(pinned.object_count(), 0);
        assert_eq!(live.len(), 1);
    }

    /// A live delta swept over the dense tier of a small grid and over
    /// the compressed tier of a grid the freeze heuristic compresses.
    #[test]
    fn sweep_tiling_is_bit_identical_to_per_tile_loop() {
        for (nx, ny, compressed) in [(16, 12, false), (400, 400, true)] {
            let g = grid(nx, ny);
            // 150 ops at a refreeze every 60 leave 30 in the delta.
            let log = write_log(&g, 150, 4);
            let live = LiveEulerHistogram::with_config(g, 6, Some(60));
            for op in &log {
                live.apply(*op).unwrap();
            }
            let est = LiveSEuler::new(live.pin());
            assert_eq!(est.snapshot().delta_len(), 30);
            assert_eq!(est.snapshot().frozen().is_compressed(), compressed);
            let tilings = vec![
                Tiling::new(g.full(), 1, 1).unwrap(),
                Tiling::new(g.full(), 4, 4).unwrap(),
                Tiling::new(g.full(), 16, 12).unwrap(),
                Tiling::new(g.full(), 3, 5).unwrap(),
                Tiling::new(GridRect::unchecked(2, 3, 13, 11), 4, 3).unwrap(),
                Tiling::new(GridRect::unchecked(1, 1, 16, 12), 5, 11).unwrap(),
            ];
            for t in tilings {
                let swept = est.estimate_tiling(&t);
                let looped: Vec<_> = t.iter().map(|(_, tile)| est.estimate(&tile)).collect();
                assert_eq!(swept, looped, "{nx}x{ny} {t:?}");
            }
        }
    }

    #[test]
    fn checkpoint_image_then_restore_resumes_counters_and_state() {
        let g = grid(20, 14);
        let live = LiveEulerHistogram::with_config(g, 5, None);
        let log = write_log(&g, 37, 0xC4EC);
        for op in &log {
            live.apply(*op).unwrap();
        }
        let image = live.checkpoint_image();
        assert_eq!(image.version, 37);
        // The image folds the delta, so a second checkpoint without new
        // writes is clean: same version, same epoch, same bytes.
        let again = live.checkpoint_image();
        assert_eq!(again.epoch, image.epoch);
        assert_eq!(again.version, image.version);
        assert_eq!(again.bytes, image.bytes);

        let base = EulerHistogram::from_bytes(&image.bytes).unwrap();
        let restored = LiveEulerHistogram::restore(base, 5, None, image.epoch, image.version);
        assert_eq!(restored.epoch(), image.epoch);
        assert_eq!(restored.version(), image.version);
        // Replaying a suffix on the restored side tracks the original.
        let suffix = write_log(&g, 11, 0xC4ED);
        for op in &suffix {
            live.apply(*op).unwrap();
            restored.apply(*op).unwrap();
        }
        let mut full = log.clone();
        full.extend_from_slice(&suffix);
        let reference = rebuild(g, &full);
        assert_eq!(*live.refreeze().frozen().as_ref(), reference);
        assert_eq!(*restored.refreeze().frozen().as_ref(), reference);
        assert_eq!(restored.version(), live.version());
    }

    /// A checkpoint encodes the frozen cube, differenced row by row; its
    /// bytes must equal the bucket array's own encoding of the same write
    /// prefix — on the dense tier, on the compressed tier (a grid big
    /// enough for the freeze heuristic to pick it) and on 1-cell-wide
    /// grids.
    #[test]
    fn checkpoint_images_equal_the_bucket_array_encoding() {
        for (nx, ny, n, seed) in [
            (20, 14, 120, 1),
            (1, 1, 30, 2),
            (1, 7, 40, 3),
            (7, 1, 40, 4),
            (400, 400, 40, 5),
        ] {
            let g = grid(nx, ny);
            let log = write_log(&g, n, seed);
            let live = LiveEulerHistogram::with_config(g, 4, Some(9));
            for (i, op) in log.iter().enumerate() {
                live.apply(*op).unwrap();
                if i % 13 == 12 || i + 1 == log.len() {
                    let image = live.checkpoint_image();
                    let mut reference = EulerHistogram::new(g);
                    reference.apply_signed_batch(log[..=i].iter().map(|op| (&op.rect, op.sign)));
                    assert_eq!(
                        image.bytes,
                        reference.to_bytes_compressed(),
                        "{nx}x{ny} at version {}",
                        i + 1
                    );
                    assert_eq!(*live.pin().frozen().as_ref(), reference.freeze());
                }
            }
            let compressed = live.pin().frozen().is_compressed();
            assert_eq!(compressed, nx == 400, "{nx}x{ny} tier");
        }
        // An insert-only log: the image equals the bulk build's.
        let g = grid(20, 14);
        let objects = random_objects(&g, 50, 6);
        let live = LiveEulerHistogram::with_config(g, 4, Some(9));
        for o in &objects {
            live.insert(o);
        }
        assert_eq!(
            live.checkpoint_image().bytes,
            EulerHistogram::build(g, &objects).to_bytes_compressed()
        );
    }

    /// A remove past empty is an error checked under the writer lock:
    /// nothing is applied, the version stays, and later writes proceed.
    #[test]
    fn remove_past_empty_is_refused_and_changes_nothing() {
        let g = grid(6, 6);
        let s = Snapper::new(g);
        let a = s.snap(&Rect::new(0.5, 0.5, 2.5, 2.5).unwrap());
        let live = LiveEulerHistogram::with_config(g, 2, Some(3));
        assert_eq!(live.remove(&a), Err(WriteRefused::RemoveFromEmpty));
        assert_eq!((live.version(), live.len()), (0, 0));
        assert_eq!(live.apply(DeltaOp::insert(a)), Ok(1));
        assert_eq!(live.remove(&a), Ok(2));
        assert_eq!(
            live.apply(DeltaOp::delete(a)),
            Err(WriteRefused::RemoveFromEmpty)
        );
        assert_eq!((live.version(), live.len()), (2, 0));
        assert_eq!(live.refreeze().frozen().total(), 0);
    }

    /// A histogram over `g` holding `count` objects whose bucket (0, 0)
    /// is `corner` — so every prefix value is `corner` — as a persisted
    /// image can state it.
    fn stated(g: Grid, count: u64, corner: i64) -> EulerHistogram {
        let (ew, eh) = g.euler_dims();
        let mut buckets = euler_cube::CubeBuffer::zeros(ew, eh);
        buckets.add(0, 0, corner);
        EulerHistogram::from_parts(g, buckets, count)
    }

    /// At `MAX_OBJECTS` live objects an insert is refused and changes
    /// nothing; a remove makes room for exactly one more.
    #[test]
    fn inserts_at_the_object_bound_are_refused() {
        let g = grid(6, 6);
        let a = Snapper::new(g).snap(&Rect::new(0.5, 0.5, 2.5, 2.5).unwrap());
        let live = LiveEulerHistogram::preloaded(stated(g, MAX_OBJECTS, 0));
        let v = MAX_OBJECTS;
        assert_eq!(live.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));
        assert_eq!((live.version(), live.len()), (v, MAX_OBJECTS));
        assert_eq!(live.remove(&a), Ok(v + 1));
        assert_eq!(live.apply(DeltaOp::insert(a)), Ok(v + 2));
        assert_eq!(live.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));
        assert_eq!(live.refreeze().object_count(), MAX_OBJECTS);
        assert_eq!(live.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));
        assert!(WriteRefused::AtBound.to_string().contains("2147483647"));
    }

    /// A write that could move a prefix value past the cell range is
    /// refused even below the object bound: values an image states
    /// near the ends of the range, or that removes of objects never
    /// inserted drifted there, stay in range through every fold.
    #[test]
    fn writes_that_could_leave_the_cell_range_are_refused() {
        let g = grid(6, 6);
        let a = Snapper::new(g).snap(&Rect::new(0.5, 0.5, 2.5, 2.5).unwrap());
        let max = i64::from(Cell::MAX);
        let high = LiveEulerHistogram::restore(stated(g, 1, max - 1), 2, None, 1, 1);
        assert_eq!(high.apply(DeltaOp::insert(a)), Ok(2));
        assert_eq!(high.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));
        assert_eq!(high.refreeze().frozen().cum().value_range(), (0, max));
        assert_eq!(high.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));
        assert_eq!(high.remove(&a), Ok(3));

        // A fold widens the bounds by its delta; a write they would
        // refuse rescans the cube and goes through when its values allow.
        let churn = LiveEulerHistogram::restore(stated(g, 1, max - 1), 2, None, 1, 1);
        assert_eq!(churn.apply(DeltaOp::insert(a)), Ok(2));
        assert_eq!(churn.remove(&a), Ok(3));
        churn.refreeze();
        assert_eq!(churn.apply(DeltaOp::insert(a)), Ok(4));
        assert_eq!(churn.apply(DeltaOp::insert(a)), Err(WriteRefused::AtBound));

        let low = LiveEulerHistogram::restore(stated(g, 5, -max), 2, None, 1, 5);
        assert_eq!(low.remove(&a), Ok(6));
        assert_eq!(low.remove(&a), Err(WriteRefused::AtBound));
        assert_eq!(low.apply(DeltaOp::insert(a)), Ok(7));
        assert_eq!(low.refreeze().frozen().cum().value_range(), (-max, 0));
    }

    proptest! {
        /// The scatter path agrees with the per-tile loop for arbitrary
        /// write logs, thresholds and tiling shapes (including sub-region
        /// tilings with uneven remainders and ops outside the region).
        #[test]
        fn scatter_equals_loop_on_random_tilings(
            seed in 0u64..10,
            n_ops in 0usize..120,
            seal in 1usize..20,
            rx0 in 0usize..8, ry0 in 0usize..6,
            rw in 2usize..16, rh in 2usize..12,
            cols in 1usize..7, rows in 1usize..7,
        ) {
            let g = grid(16, 12);
            let log = write_log(&g, n_ops, seed);
            let live = LiveEulerHistogram::with_config(g, seal, None);
            for op in &log {
                live.apply(*op).unwrap();
            }
            let region = GridRect::unchecked(
                rx0, ry0, (rx0 + rw).min(16), (ry0 + rh).min(12));
            let t = Tiling::new(
                region,
                cols.min(region.width()),
                rows.min(region.height()),
            ).unwrap();
            let est = LiveSEuler::new(live.pin());
            prop_assert_eq!(
                est.estimate_tiling(&t),
                t.iter().map(|(_, q)| est.estimate(&q)).collect::<Vec<_>>());
        }

        /// Live snapshots match frozen rebuilds on arbitrary prefixes.
        #[test]
        fn any_prefix_matches_rebuild(
            seed in 0u64..8,
            n_ops in 1usize..100,
            seal in 1usize..12,
            refreeze in 1usize..40,
        ) {
            let g = grid(13, 10);
            let log = write_log(&g, n_ops, seed);
            let live = LiveEulerHistogram::with_config(g, seal, Some(refreeze));
            for op in &log {
                live.apply(*op).unwrap();
            }
            let snap = live.pin();
            let reference = rebuild(g, &log);
            prop_assert_eq!(snap.object_count(), reference.object_count());
            for (ex0, ey0, ex1, ey1) in windows() {
                prop_assert_eq!(
                    snap.signed_sum(ex0, ey0, ex1, ey1),
                    reference.signed_sum(ex0, ey0, ex1, ey1));
            }
        }
    }
}
