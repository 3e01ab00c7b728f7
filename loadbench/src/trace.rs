//! Spans recorded around the calls the harness makes into each layer.
//!
//! Every span lands in a thread-local buffer tagged with the request the
//! thread is serving and the span open beneath it, so a request's spans
//! form a tree without any locking. `ServeCore::handle` is synchronous and
//! runs the engine on the calling thread (one engine thread), which is what
//! lets the pin, estimate and write spans recorded by [`TracedSession`] and
//! [`TracedEstimator`] attach to the `handle` span that caused them.

use std::cell::RefCell;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use spatial_histograms::browse::{BrowseSession, PinnedSession};
use spatial_histograms::core::{Level2Estimator, LiveEulerHistogram, RelationCounts};
use spatial_histograms::geom::Rect;
use spatial_histograms::grid::{Grid, GridRect, Tiling};
use spatial_histograms::metrics::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One whole in-process request: parse, handle, encode.
    Request,
    Parse,
    Handle,
    Encode,
    Pin,
    Estimate,
    Write,
    Sync,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Parse => "parse",
            Name::Handle => "handle",
            Name::Encode => "encode",
            Name::Pin => "pin",
            Name::Estimate => "estimate",
            Name::Write => "write",
            Name::Sync => "sync",
        }
    }
}

/// One timed call. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub parent: Option<usize>,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Request id of spans recorded outside any request (the preload).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Default)]
struct Local {
    req: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the spans this thread records from now on with request `req`.
pub fn set_request(req: u64) {
    LOCAL.with(|l| l.borrow_mut().req = Some(req));
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len();
        let span = Span {
            req: l.req.unwrap_or(NO_REQUEST),
            parent: l.open.last().copied(),
            name,
            start_ns: now_ns(),
            end_ns: 0,
        };
        l.spans.push(span);
        l.open.push(idx);
        idx
    });
    let out = f();
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.spans[idx].end_ns = end;
        l.open.pop();
    });
    out
}

/// Takes every span this thread recorded and resets its request tag.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.req = None;
        std::mem::take(&mut l.spans)
    })
}

/// The part of `parent` that none of `children` covers. Children are
/// clipped to the parent, and where they overlap the shared stretch is
/// subtracted once.
pub fn self_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (lo, hi) = parent;
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo).saturating_sub(covered)
}

/// A [`BrowseSession`] that forwards every call and records spans around
/// pin, write and sync. `live` is the session's substrate, read after each
/// pin for the delta depth the pinned view carries.
pub struct TracedSession {
    inner: Arc<dyn BrowseSession>,
    live: Arc<LiveEulerHistogram>,
    deltas: std::sync::Mutex<Vec<usize>>,
}

impl TracedSession {
    pub fn new(inner: Arc<dyn BrowseSession>, live: Arc<LiveEulerHistogram>) -> TracedSession {
        TracedSession {
            inner,
            live,
            deltas: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Delta length seen right after each pin.
    pub fn deltas(&self) -> Vec<usize> {
        self.deltas.lock().expect("delta log lock poisoned").clone()
    }
}

impl BrowseSession for TracedSession {
    fn session_name(&self) -> &'static str {
        self.inner.session_name()
    }
    fn grid(&self) -> &Grid {
        self.inner.grid()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn version(&self) -> u64 {
        self.inner.version()
    }
    fn pin_session(&self) -> PinnedSession {
        let pinned = span(Name::Pin, || self.inner.pin_session());
        let delta = self.live.pin().delta_len();
        self.deltas
            .lock()
            .expect("delta log lock poisoned")
            .push(delta);
        let estimator = Arc::new(TracedEstimator(pinned.estimator().clone()));
        PinnedSession::new(estimator, pinned.epoch(), pinned.version())
    }
    fn resolution_level(&self, tiling: &Tiling) -> usize {
        self.inner.resolution_level(tiling)
    }
    fn insert(&self, rect: &Rect) {
        span(Name::Write, || self.inner.insert(rect))
    }
    fn remove(&self, rect: &Rect) {
        span(Name::Write, || self.inner.remove(rect))
    }
    fn try_insert(&self, rect: &Rect) -> io::Result<u64> {
        span(Name::Write, || self.inner.try_insert(rect))
    }
    fn try_remove(&self, rect: &Rect) -> io::Result<u64> {
        span(Name::Write, || self.inner.try_remove(rect))
    }
    fn sync(&self) -> io::Result<()> {
        span(Name::Sync, || self.inner.sync())
    }
    fn checkpoint(&self) -> io::Result<Option<(u64, u64)>> {
        self.inner.checkpoint()
    }
    fn recorder(&self) -> &Arc<Recorder> {
        self.inner.recorder()
    }
}

/// A [`Level2Estimator`] that forwards every method, the dispatch hints
/// (`supports_sweep`, `epoch`) and the tiling kernels included, so the
/// engine takes the same path it would over the bare estimator; each
/// estimate call is a span.
pub struct TracedEstimator<E>(pub E);

impl<E: Level2Estimator> Level2Estimator for TracedEstimator<E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        span(Name::Estimate, || self.0.estimate(q))
    }
    fn object_count(&self) -> u64 {
        self.0.object_count()
    }
    fn storage_cells(&self) -> u64 {
        self.0.storage_cells()
    }
    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        span(Name::Estimate, || self.0.estimate_tiling(t))
    }
    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        span(Name::Estimate, || self.0.estimate_tiling_total(t))
    }
    fn supports_sweep(&self) -> bool {
        self.0.supports_sweep()
    }
    fn epoch(&self) -> Option<u64> {
        self.0.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        // Disjoint children.
        assert_eq!(self_ns((0, 100), &mut [(10, 20), (50, 70)]), 70);
        // Overlapping children cover 10..40 once, not 20 + 20.
        assert_eq!(self_ns((0, 100), &mut [(20, 40), (10, 30)]), 70);
        // A child nested in another adds nothing.
        assert_eq!(self_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_ns((10, 20), &mut [(0, 15), (18, 40)]), 3);
        assert_eq!(self_ns((0, 50), &mut []), 50);
    }

    #[test]
    fn spans_nest_under_the_span_open_on_the_thread() {
        std::thread::spawn(|| {
            set_request(7);
            span(Name::Handle, || {
                span(Name::Pin, || {});
                span(Name::Estimate, || {});
            });
            let spans = take();
            assert_eq!(spans.len(), 3);
            assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
            assert_eq!(spans[0].parent, None);
            assert_eq!(spans[1].parent, Some(0));
            assert_eq!(spans[2].parent, Some(0));
        })
        .join()
        .unwrap();
    }
}
