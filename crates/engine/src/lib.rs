//! **euler-engine** — the parallel batch query engine.
//!
//! A browsing interaction is never one query: §1's GeoBrowsing scenario
//! issues one Level 2 query *per tile* of the displayed region (528 for
//! the California example, 16,200 for the Q₂ set). Each tile query is
//! independent and the estimators are read-only after construction, so a
//! batch parallelizes embarrassingly. [`EstimatorEngine`] owns an
//! `Arc`-shared [`Level2Estimator`], accepts a [`QueryBatch`] (a slice of
//! [`GridRect`]s, a [`Tiling`], or a [`QuerySet`]), splits it into
//! contiguous chunks across a scoped thread pool, and lets every worker
//! write its chunk of per-tile results while accumulating a worker-local
//! [`RelationCounts`] total — merged once at the end, so there is no
//! shared mutable state and no per-query synchronization.
//!
//! Wall-clock latency and derived throughput for each batch are measured
//! with `euler-metrics` and returned in a [`BatchReport`]. Attach a
//! [`Recorder`] (via [`EstimatorEngine::builder`]) and every query is
//! additionally timed into lock-free telemetry — per-worker
//! [`TelemetryShard`]s folded at join, so the instrumentation adds no
//! cross-thread contention and `p50/p95/p99` latency percentiles come
//! out of [`Recorder::snapshot`]:
//!
//! ```
//! use euler_core::{EulerHistogram, SEulerApprox};
//! use euler_engine::{EstimatorEngine, QueryBatch};
//! use euler_grid::{Grid, Tiling};
//! use euler_metrics::Recorder;
//!
//! let grid = Grid::paper_default();
//! let est = SEulerApprox::new(EulerHistogram::new(grid).freeze());
//! let recorder = Recorder::shared();
//! let engine = EstimatorEngine::builder(std::sync::Arc::new(est))
//!     .threads(2)
//!     .recorder(recorder.clone())
//!     .build();
//! engine.run_batch(&QueryBatch::from(&Tiling::new(grid.full(), 6, 6).unwrap()));
//! let stats = recorder.snapshot();
//! assert_eq!(stats.queries, 36);
//! assert_eq!(stats.batches, 1);
//! assert!(stats.query_latency.p50() <= stats.query_latency.p99());
//! ```
//!
//! ```
//! use euler_core::{EulerHistogram, SEulerApprox};
//! use euler_engine::{EstimatorEngine, QueryBatch};
//! use euler_geom::Rect;
//! use euler_grid::{DataSpace, Grid, Snapper, Tiling};
//! use std::sync::Arc;
//!
//! // Ten small objects on a 36x18 grid.
//! let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
//! let snapper = Snapper::new(grid);
//! let objects: Vec<_> = (0..10)
//!     .map(|i| {
//!         let x = 20.0 + 30.0 * i as f64;
//!         snapper.snap(&Rect::new(x, 40.0, x + 5.0, 45.0).unwrap())
//!     })
//!     .collect();
//! let est = SEulerApprox::new(EulerHistogram::build(grid, &objects).freeze());
//!
//! // Browse the whole space as a 6x6 tiling, four workers.
//! let engine = EstimatorEngine::new(Arc::new(est)).with_threads(4);
//! let result = engine.run_batch(&QueryBatch::from(&Tiling::new(grid.full(), 6, 6).unwrap()));
//!
//! assert_eq!(result.counts.len(), 36);
//! // Every per-tile estimate accounts for all ten objects.
//! assert!(result.counts.iter().all(|c| c.total() == 10));
//! assert_eq!(result.report.total.total(), 36 * 10);
//! assert!(result.report.throughput_qps() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;

use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use euler_core::{Level2Estimator, RelationCounts};
use euler_grid::{GridRect, QuerySet, Tiling};
use euler_metrics::{time_it, OutcomeLabel, Recorder, RelationTally, TelemetryShard};

use faults::FaultSite;

/// The estimator handle the engine shares across workers.
pub type SharedEstimator = Arc<dyn Level2Estimator + Send + Sync>;

/// Per-batch execution controls: an optional wall-clock deadline,
/// checked once when the batch starts; after that a sweep runs to
/// completion, while the per-tile loop checks it before every query. The
/// default options carry no deadline, and the loop then skips the check;
/// see [`EstimatorEngine::run_batch_with`].
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    deadline: Option<Duration>,
}

impl BatchOptions {
    /// Options with no deadline (the [`EstimatorEngine::run_batch`]
    /// behaviour).
    pub fn new() -> BatchOptions {
        BatchOptions::default()
    }

    /// Sets a wall-clock budget for the batch, measured from the moment
    /// the batch starts executing. A per-tile worker that finds the
    /// budget spent stops before its next query, and the unanswered
    /// tail is reported [`BatchOutcome::Failed`] with
    /// [`FailReason::DeadlineExceeded`].
    pub fn deadline(mut self, budget: Duration) -> BatchOptions {
        self.deadline = Some(budget);
        self
    }

    /// The configured wall-clock budget, if any.
    pub fn deadline_budget(&self) -> Option<Duration> {
        self.deadline
    }
}

/// Why delivered results took a fallback path instead of the intended one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The sweep evaluator panicked; the per-tile loop answered instead
    /// (bit-identical results, by the sweep-equivalence law).
    SweepPanic,
}

/// Why a query produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The worker chunk holding the query panicked.
    Panicked,
    /// The batch deadline expired before the query ran.
    DeadlineExceeded,
}

/// The per-query resilience outcome of a batch: the degradation ladder's
/// report of *how* each slot of [`BatchResult::counts`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Answered on the intended path; bit-identical to a fault-free run.
    Complete,
    /// Answered on a fallback path (still bit-identical for sweep
    /// fallbacks — the per-tile loop computes the same counts).
    Degraded(DegradeReason),
    /// Not answered; the counts slot holds `RelationCounts::default()`.
    Failed(FailReason),
}

impl BatchOutcome {
    /// Whether the query was answered on the intended path.
    pub fn is_complete(&self) -> bool {
        matches!(self, BatchOutcome::Complete)
    }

    /// Whether the query was answered on a fallback path.
    pub fn is_degraded(&self) -> bool {
        matches!(self, BatchOutcome::Degraded(_))
    }

    /// Whether the query went unanswered.
    pub fn is_failed(&self) -> bool {
        matches!(self, BatchOutcome::Failed(_))
    }

    /// Whether a result was delivered (complete or degraded).
    pub fn is_delivered(&self) -> bool {
        !self.is_failed()
    }
}

/// A structured record of one contained fault: which chunk of the batch
/// it hit, the query range that chunk covered, and why. Sweep-evaluator
/// panics are logged here too (as chunk 0 spanning the whole batch) even
/// when the per-tile fallback recovers every query — the outcomes then
/// say [`BatchOutcome::Degraded`], and the error is the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the worker chunk the fault hit.
    pub chunk: usize,
    /// The batch-order query range the chunk covered.
    pub queries: Range<usize>,
    /// Why the chunk (or its tail) produced no results.
    pub reason: FailReason,
    /// Human-readable detail (panic payload, deadline accounting).
    pub message: String,
}

/// A batch of aligned queries: borrowed from a slice, or materialized
/// from a [`Tiling`] / [`QuerySet`] in row-major tile order.
///
/// A batch built from a tiling remembers its shape: when the engine's
/// estimator supports the sweep evaluator
/// ([`Level2Estimator::supports_sweep`]), [`EstimatorEngine::run_batch`]
/// answers such a batch with one amortized row-major pass
/// ([`Level2Estimator::estimate_tiling`]) instead of a per-tile loop.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    queries: Cow<'a, [GridRect]>,
    tiling: Option<Tiling>,
}

impl<'a> QueryBatch<'a> {
    /// A batch borrowing an existing query slice.
    pub fn new(queries: &'a [GridRect]) -> QueryBatch<'a> {
        QueryBatch {
            queries: Cow::Borrowed(queries),
            tiling: None,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in batch order.
    pub fn as_slice(&self) -> &[GridRect] {
        &self.queries
    }

    /// The tiling this batch was materialized from, if any — the shape
    /// the sweep evaluator dispatches on.
    pub fn tiling(&self) -> Option<&Tiling> {
        self.tiling.as_ref()
    }
}

impl<'a> From<&'a [GridRect]> for QueryBatch<'a> {
    fn from(queries: &'a [GridRect]) -> QueryBatch<'a> {
        QueryBatch::new(queries)
    }
}

impl From<Vec<GridRect>> for QueryBatch<'static> {
    fn from(queries: Vec<GridRect>) -> QueryBatch<'static> {
        QueryBatch {
            queries: Cow::Owned(queries),
            tiling: None,
        }
    }
}

impl From<&Tiling> for QueryBatch<'static> {
    fn from(tiling: &Tiling) -> QueryBatch<'static> {
        QueryBatch {
            queries: Cow::Owned(tiling.iter().map(|(_, t)| t).collect()),
            tiling: Some(*tiling),
        }
    }
}

impl From<&QuerySet> for QueryBatch<'static> {
    fn from(qs: &QuerySet) -> QueryBatch<'static> {
        QueryBatch {
            queries: Cow::Owned(qs.iter().collect()),
            tiling: Some(*qs.tiling()),
        }
    }
}

/// Measured outcome of one [`EstimatorEngine::run_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Estimator name (from [`Level2Estimator::name`]).
    pub estimator: &'static str,
    /// Number of queries processed.
    pub queries: usize,
    /// Worker threads actually used (capped at the batch size).
    pub threads: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Component-wise sum of every per-query estimate.
    pub total: RelationCounts,
    /// The ingest epoch the estimator's pinned snapshot belongs to
    /// ([`Level2Estimator::epoch`]): an epoch-snapshot estimator answers
    /// the *whole* batch from one snapshot, so a single value describes
    /// every result. `None` for estimators over plain summaries.
    pub epoch: Option<u64>,
}

impl BatchReport {
    /// Queries per second of wall-clock time. Always finite: an empty
    /// batch is 0 q/s, and a clock too coarse to see a non-empty batch
    /// is floored at one nanosecond of elapsed time.
    pub fn throughput_qps(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let secs = self.elapsed.max(Duration::from_nanos(1)).as_secs_f64();
        self.queries as f64 / secs
    }

    /// Mean wall-clock latency per query (includes fan-out overhead).
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.queries as u32
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} queries / {} thread(s) in {:.3} ms ({:.0} q/s)",
            self.estimator,
            self.queries,
            self.threads,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput_qps(),
        )
    }
}

/// Per-query results plus the batch-level measurement and the
/// degradation ladder's per-query outcome report.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One estimate per query, in batch order.
    /// [`BatchOutcome::Failed`] slots hold `RelationCounts::default()`.
    pub counts: Vec<RelationCounts>,
    /// One resilience outcome per query, in batch order.
    pub outcomes: Vec<BatchOutcome>,
    /// Structured records of every contained fault (empty on a clean run).
    pub errors: Vec<ChunkError>,
    /// Latency / throughput / totals for the batch. `total` sums only
    /// delivered results.
    pub report: BatchReport,
}

impl BatchResult {
    /// Whether every query completed on the intended path.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(BatchOutcome::is_complete)
    }

    /// Number of queries answered on the intended path.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_complete()).count()
    }

    /// Number of queries answered on a fallback path.
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_degraded()).count()
    }

    /// Number of unanswered queries.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// The batch's overall outcome class: `Failed` if any query went
    /// unanswered, else `Degraded` if any took a fallback path, else
    /// `Complete` (also the label of an empty batch).
    pub fn overall(&self) -> OutcomeLabel {
        overall_label(&self.outcomes)
    }
}

/// Collapses per-query outcomes into the batch's outcome class.
fn overall_label(outcomes: &[BatchOutcome]) -> OutcomeLabel {
    if outcomes.iter().any(BatchOutcome::is_failed) {
        OutcomeLabel::Failed
    } else if outcomes.iter().any(BatchOutcome::is_degraded) {
        OutcomeLabel::Degraded
    } else {
        OutcomeLabel::Complete
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<faults::InjectedPanic>() {
        p.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// How a chunk's execution ended (internal; maps onto [`BatchOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkEnd {
    Done,
    Panicked,
    DeadlineExceeded,
}

/// What one worker hands back at join.
struct ChunkOutput {
    total: RelationCounts,
    completed: usize,
    end: ChunkEnd,
    message: Option<String>,
}

/// Whether an absolute batch deadline has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Runs one contiguous chunk of queries, writing per-query results into
/// `out` and keeping the chunk's running total. With a deadline, checks
/// it before every query and stops early (keeping the results produced
/// so far) once it has passed. With a shard, each query is individually
/// timed and recorded — worker-locally, so the instrumentation adds no
/// cross-thread traffic (the shard folds into the shared [`Recorder`]
/// once, at join).
fn controlled_chunk(
    est: &SharedEstimator,
    queries: &[GridRect],
    out: &mut [RelationCounts],
    mut shard: Option<&mut TelemetryShard>,
    deadline: Option<Instant>,
) -> ChunkOutput {
    let mut total = RelationCounts::default();
    let mut completed = 0;
    for (q, slot) in queries.iter().zip(out.iter_mut()) {
        if expired(deadline) {
            return ChunkOutput {
                total,
                completed,
                end: ChunkEnd::DeadlineExceeded,
                message: None,
            };
        }
        match shard.as_deref_mut() {
            None => {
                *slot = est.estimate(q);
                total = total.add(slot);
            }
            Some(shard) => {
                let start = Instant::now();
                *slot = est.estimate(q);
                let latency = start.elapsed();
                total = total.add(slot);
                let c = slot.clamped();
                shard.record_query(
                    latency,
                    RelationTally::new(
                        c.disjoint as u64,
                        c.contains as u64,
                        c.contained as u64,
                        c.overlaps as u64,
                    ),
                );
            }
        }
        completed += 1;
    }
    ChunkOutput {
        total,
        completed,
        end: ChunkEnd::Done,
        message: None,
    }
}

/// Runs one chunk under panic isolation: the fail-point site and the
/// whole estimate loop sit inside `catch_unwind`, so a poisoned query
/// takes down its chunk, not the process. On panic the chunk's partial
/// results are discarded (its `out` slots reset to the default) but the
/// telemetry shard — owned by the caller, outside the unwind boundary —
/// keeps what it recorded: queries *executed* are telemetry, queries
/// *delivered* are outcomes.
fn run_chunk(
    est: &SharedEstimator,
    queries: &[GridRect],
    out: &mut [RelationCounts],
    shard: Option<&mut TelemetryShard>,
    deadline: Option<Instant>,
    chunk_index: usize,
) -> ChunkOutput {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        faults::fire(FaultSite::Chunk, Some(chunk_index));
        controlled_chunk(est, queries, out, shard, deadline)
    }));
    match caught {
        Ok(output) => output,
        Err(payload) => {
            for slot in out.iter_mut() {
                *slot = RelationCounts::default();
            }
            ChunkOutput {
                total: RelationCounts::default(),
                completed: 0,
                end: ChunkEnd::Panicked,
                message: Some(panic_message(payload.as_ref())),
            }
        }
    }
}

/// Configures an [`EstimatorEngine`]:
/// `EstimatorEngine::builder(est).threads(4).recorder(r).build()`.
#[derive(Clone)]
pub struct EngineBuilder {
    estimator: SharedEstimator,
    threads: Option<usize>,
    recorder: Option<Arc<Recorder>>,
}

impl EngineBuilder {
    /// Sets the worker count (clamped to at least 1); defaults to one
    /// worker per available core.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = Some(threads.max(1));
        self
    }

    /// Attaches a telemetry recorder: every query and batch the engine
    /// runs is recorded into it (per-worker shards, folded at join).
    pub fn recorder(mut self, recorder: Arc<Recorder>) -> EngineBuilder {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> EstimatorEngine {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        EstimatorEngine {
            estimator: self.estimator,
            threads,
            recorder: self.recorder,
        }
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("estimator", &self.estimator.name())
            .field("threads", &self.threads)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

/// The batch engine: a frozen, `Arc`-shared estimator, a worker count,
/// and an optional telemetry recorder. Cloning the engine clones the
/// handles, not the histogram.
#[derive(Clone)]
pub struct EstimatorEngine {
    estimator: SharedEstimator,
    threads: usize,
    recorder: Option<Arc<Recorder>>,
}

impl EstimatorEngine {
    /// Wraps a shared estimator; defaults to one worker per available
    /// core and no telemetry.
    pub fn new(estimator: SharedEstimator) -> EstimatorEngine {
        EstimatorEngine::builder(estimator).build()
    }

    /// Starts a builder: set threads and telemetry, then
    /// [`EngineBuilder::build`].
    pub fn builder(estimator: SharedEstimator) -> EngineBuilder {
        EngineBuilder {
            estimator,
            threads: None,
            recorder: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> EstimatorEngine {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a telemetry recorder (see [`EngineBuilder::recorder`]).
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> EstimatorEngine {
        self.recorder = Some(recorder);
        self
    }

    /// The shared estimator.
    pub fn estimator(&self) -> &SharedEstimator {
        &self.estimator
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached telemetry recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Runs every query of the batch with no deadline or armed
    /// fail-points in play — equivalent to [`Self::run_batch_with`] with
    /// default [`BatchOptions`], which documents the dispatch and
    /// resilience behaviour.
    pub fn run_batch(&self, batch: &QueryBatch<'_>) -> BatchResult {
        self.run_batch_with(batch, &BatchOptions::default())
    }

    /// Runs every query of the batch under the given controls, returning
    /// per-query counts in batch order, per-query [`BatchOutcome`]s, any
    /// contained [`ChunkError`]s, and the measured [`BatchReport`].
    ///
    /// **Deadline.** A deadline in `opts` is checked once, before any
    /// work: if it has already passed (a zero budget) every query is
    /// reported [`BatchOutcome::Failed`] and nothing runs. Past that
    /// check the dispatch below is the same with or without a deadline.
    ///
    /// **Dispatch.** A batch materialized from a [`Tiling`] (or
    /// [`QuerySet`]) whose estimator supports the sweep evaluator is
    /// answered by amortized row-major
    /// [`Level2Estimator::estimate_tiling`] passes, one per band of
    /// whole tile rows — per-tile results are identical to the chunked
    /// path, the recorder still sees one query per tile, and
    /// [`Recorder::record_sweep`] logs the dispatch. A sweep is not
    /// interruptible: it runs to completion and is delivered `Complete`
    /// even if the deadline passes meanwhile. Otherwise the batch is
    /// split into `threads` contiguous chunks; each worker owns a
    /// disjoint `chunks_mut` slice of the result vector, a worker-local
    /// running total, and (when a recorder is attached) a worker-local
    /// [`TelemetryShard`], so workers never contend — the shards fold
    /// into the recorder at join, after the batch clock stops. All
    /// result and shard storage is allocated before the batch clock
    /// starts, so the timed hot loop is allocation-free, and with one
    /// thread no threads are spawned at all. With a deadline, each worker
    /// checks it before every query and stops with partial results —
    /// the answered prefix keeps its outcomes, the unanswered tail is
    /// `Failed`.
    ///
    /// **Degradation ladder.** Each worker chunk runs under
    /// `catch_unwind`: a panicking estimator fails its chunk
    /// ([`BatchOutcome::Failed`] with [`FailReason::Panicked`], a
    /// [`ChunkError`] in [`BatchResult::errors`]) while every other
    /// chunk's results are kept bit-identical to a fault-free run. A
    /// panicking *sweep* falls back to the per-tile loop
    /// ([`BatchOutcome::Degraded`] with [`DegradeReason::SweepPanic`] —
    /// same counts, by the sweep-equivalence law), which still honours
    /// the deadline.
    pub fn run_batch_with(&self, batch: &QueryBatch<'_>, opts: &BatchOptions) -> BatchResult {
        let queries = batch.as_slice();
        let n = queries.len();
        let est = &self.estimator;

        let deadline = opts.deadline.map(|budget| Instant::now() + budget);
        if expired(deadline) {
            return self.fail_up_front(n);
        }

        if n > 0 && est.supports_sweep() {
            if let Some(tiling) = batch.tiling() {
                match self.try_sweep(tiling) {
                    Ok(result) => return result,
                    Err(error) => {
                        if let Some(rec) = &self.recorder {
                            rec.record_panic_caught();
                            rec.record_degraded_sweep();
                        }
                        return self.run_chunked(
                            queries,
                            deadline,
                            Some(DegradeReason::SweepPanic),
                            vec![error],
                        );
                    }
                }
            }
        }
        self.run_chunked(queries, deadline, None, Vec::new())
    }

    /// The deadline passed before the batch started (a zero budget):
    /// fails every query without starting workers.
    fn fail_up_front(&self, n: usize) -> BatchResult {
        let est = &self.estimator;
        let reason = FailReason::DeadlineExceeded;
        let outcomes = vec![BatchOutcome::Failed(reason); n];
        let epoch = est.epoch();
        if let Some(rec) = &self.recorder {
            rec.record_batch(Duration::ZERO);
            rec.record_deadline_exceeded();
            rec.record_batch_outcome(overall_label(&outcomes), Duration::ZERO);
            if let Some(e) = epoch {
                rec.record_epoch(e);
            }
        }
        BatchResult {
            counts: vec![RelationCounts::default(); n],
            outcomes,
            errors: vec![ChunkError {
                chunk: 0,
                queries: 0..n,
                reason,
                message: "deadline passed before the batch started".to_string(),
            }],
            report: BatchReport {
                estimator: est.name(),
                queries: n,
                threads: self.threads.min(n).max(1),
                elapsed: Duration::ZERO,
                total: RelationCounts::default(),
                epoch,
            },
        }
    }

    /// The chunked path: fans the queries across workers under panic
    /// isolation and the batch deadline. `degrade` labels delivered
    /// results when this path is a ladder fallback; `errors` carries any
    /// fault log inherited from a failed sweep attempt.
    fn run_chunked(
        &self,
        queries: &[GridRect],
        deadline: Option<Instant>,
        degrade: Option<DegradeReason>,
        mut errors: Vec<ChunkError>,
    ) -> BatchResult {
        let n = queries.len();
        let est = &self.estimator;
        let threads = self.threads.min(n).max(1);
        let record = self.recorder.is_some();
        let delivered = match degrade {
            None => BatchOutcome::Complete,
            Some(reason) => BatchOutcome::Degraded(reason),
        };

        let mut counts = vec![RelationCounts::default(); n];
        // Pre-size worker scratch outside the timed region: the hot loop
        // below performs no allocation.
        let mut shards: Vec<TelemetryShard> = if record {
            let mut v = Vec::with_capacity(threads);
            v.resize_with(threads, TelemetryShard::new);
            v
        } else {
            Vec::new()
        };

        let chunk = n.div_ceil(threads).max(1);
        let (chunk_outputs, elapsed) = time_it(|| {
            if threads == 1 {
                vec![run_chunk(
                    est,
                    queries,
                    &mut counts,
                    shards.first_mut(),
                    deadline,
                    0,
                )]
            } else {
                std::thread::scope(|s| {
                    let workers: Vec<_> = if record {
                        queries
                            .chunks(chunk)
                            .zip(counts.chunks_mut(chunk))
                            .zip(shards.iter_mut())
                            .enumerate()
                            .map(|(i, ((qs, out), shard))| {
                                s.spawn(move || run_chunk(est, qs, out, Some(shard), deadline, i))
                            })
                            .collect()
                    } else {
                        queries
                            .chunks(chunk)
                            .zip(counts.chunks_mut(chunk))
                            .enumerate()
                            .map(|(i, (qs, out))| {
                                s.spawn(move || run_chunk(est, qs, out, None, deadline, i))
                            })
                            .collect()
                    };
                    workers
                        .into_iter()
                        .map(|w| match w.join() {
                            Ok(output) => output,
                            // The chunk body is already unwind-caught, so
                            // this arm is belt-and-braces — but a join
                            // error must never kill the process.
                            Err(payload) => ChunkOutput {
                                total: RelationCounts::default(),
                                completed: 0,
                                end: ChunkEnd::Panicked,
                                message: Some(panic_message(payload.as_ref())),
                            },
                        })
                        .collect()
                })
            }
        });

        let mut outcomes = vec![delivered; n];
        let mut total = RelationCounts::default();
        let mut panics = 0u64;
        let mut interrupted = false;
        for (i, output) in chunk_outputs.iter().enumerate() {
            let start = i * chunk;
            let end = (start + chunk).min(n);
            match output.end {
                ChunkEnd::Done => total = total.add(&output.total),
                ChunkEnd::Panicked => {
                    panics += 1;
                    for o in &mut outcomes[start..end] {
                        *o = BatchOutcome::Failed(FailReason::Panicked);
                    }
                    // run_chunk resets its slots on a caught panic; this
                    // also covers the join-error arm above.
                    for slot in &mut counts[start..end] {
                        *slot = RelationCounts::default();
                    }
                    errors.push(ChunkError {
                        chunk: i,
                        queries: start..end,
                        reason: FailReason::Panicked,
                        message: output
                            .message
                            .clone()
                            .unwrap_or_else(|| "worker panicked".to_string()),
                    });
                }
                ChunkEnd::DeadlineExceeded => {
                    interrupted = true;
                    total = total.add(&output.total);
                    let reason = FailReason::DeadlineExceeded;
                    let cut = start + output.completed;
                    for o in &mut outcomes[cut..end] {
                        *o = BatchOutcome::Failed(reason);
                    }
                    errors.push(ChunkError {
                        chunk: i,
                        queries: cut..end,
                        reason,
                        message: format!(
                            "stopped after {} of {} queries",
                            output.completed,
                            end - start
                        ),
                    });
                }
            }
        }

        let epoch = est.epoch();
        if let Some(rec) = &self.recorder {
            for shard in &shards {
                rec.absorb(shard);
            }
            rec.record_batch(elapsed);
            for _ in 0..panics {
                rec.record_panic_caught();
            }
            if interrupted {
                rec.record_deadline_exceeded();
            }
            rec.record_batch_outcome(overall_label(&outcomes), elapsed);
            if let Some(e) = epoch {
                rec.record_epoch(e);
            }
        }

        BatchResult {
            counts,
            outcomes,
            errors,
            report: BatchReport {
                estimator: est.name(),
                queries: n,
                threads,
                elapsed,
                total,
                epoch,
            },
        }
    }

    /// The sweep fast path: answers a tiling-shaped batch with row-major
    /// [`Level2Estimator::estimate_tiling`] passes under `catch_unwind`;
    /// a panicking sweep returns the [`ChunkError`] for the caller's
    /// ladder instead of unwinding further.
    ///
    /// With more than one configured thread the tiling is split into
    /// horizontal bands of whole tile rows ([`band_split`]) and each band
    /// is swept by its own scoped worker. Band tilings reproduce the
    /// parent's tile geometry exactly (uniform rows keep the same floor-
    /// divided height; a remainder-absorbing last row becomes its own
    /// single-row band), and per-tile counts are pure functions of tile
    /// geometry, so the concatenated result is **bit-identical** to the
    /// single sweep — the sweep-equivalence law holds per band and the
    /// total is an exact integer sum.
    ///
    /// Telemetry stays tile-granular — one recorded query per tile, each
    /// at the tiling's amortized per-tile latency — so `queries`,
    /// per-relation totals, and latency counts agree with the per-tile
    /// path; the whole-tiling wall clock additionally lands in the
    /// recorder's sweep series via [`Recorder::record_sweep`].
    fn try_sweep(&self, tiling: &Tiling) -> Result<BatchResult, ChunkError> {
        let est = &self.estimator;
        let n = tiling.len();
        let mut shard = self.recorder.as_ref().map(|_| TelemetryShard::new());

        let bands = band_split(tiling, self.threads);
        let sweep_error = |payload: Box<dyn std::any::Any + Send>| ChunkError {
            chunk: 0,
            queries: 0..n,
            reason: FailReason::Panicked,
            message: format!(
                "sweep evaluator panicked: {}",
                panic_message(payload.as_ref())
            ),
        };
        let threads = bands.len();
        let (swept, elapsed) = time_it(|| {
            if bands.len() == 1 {
                catch_unwind(AssertUnwindSafe(|| {
                    faults::fire(FaultSite::Sweep, None);
                    est.estimate_tiling_total(tiling)
                }))
            } else {
                // Fire the sweep failpoint once, on the dispatch thread,
                // so fault-injection behaves identically at any width.
                catch_unwind(AssertUnwindSafe(|| faults::fire(FaultSite::Sweep, None)))?;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = bands
                        .iter()
                        .map(|band| {
                            scope.spawn(move || {
                                catch_unwind(AssertUnwindSafe(|| est.estimate_tiling_total(band)))
                            })
                        })
                        .collect();
                    let mut counts = Vec::with_capacity(n);
                    let mut total = RelationCounts::default();
                    for handle in handles {
                        let (band_counts, band_total) =
                            handle.join().expect("band worker catches its own panics")?;
                        counts.extend(band_counts);
                        total = total.add(&band_total);
                    }
                    Ok((counts, total))
                })
            }
        });
        let (counts, total) = match swept {
            Ok(swept) => swept,
            Err(payload) => return Err(sweep_error(payload)),
        };
        debug_assert_eq!(counts.len(), n);

        let epoch = est.epoch();
        if let Some(rec) = &self.recorder {
            let shard = shard.as_mut().expect("shard allocated with recorder");
            let per_tile = elapsed / n.max(1) as u32;
            for c in &counts {
                let cl = c.clamped();
                shard.record_query(
                    per_tile,
                    RelationTally::new(
                        cl.disjoint as u64,
                        cl.contains as u64,
                        cl.contained as u64,
                        cl.overlaps as u64,
                    ),
                );
            }
            rec.absorb(shard);
            rec.record_batch(elapsed);
            rec.record_sweep(elapsed);
            rec.record_batch_outcome(OutcomeLabel::Complete, elapsed);
            if let Some(e) = epoch {
                rec.record_epoch(e);
            }
        }

        Ok(BatchResult {
            counts,
            outcomes: all_complete(n),
            errors: Vec::new(),
            report: BatchReport {
                estimator: est.name(),
                queries: n,
                threads,
                elapsed,
                total,
                epoch,
            },
        })
    }
}

/// Splits a tiling into at most `threads` bands of whole tile rows, in
/// bottom-to-top order, such that concatenating the bands' row-major
/// tiles reproduces the parent's row-major tile sequence exactly.
///
/// The one geometric hazard is the remainder: when `height % rows != 0`
/// the parent's **last** tile row absorbs the extra cells, so that row
/// must become its own single-row band (a single-row tiling is always
/// exact); every other band holds uniformly-tall rows and re-derives the
/// parent's floor-divided tile height on its own.
fn band_split(tiling: &Tiling, threads: usize) -> Vec<Tiling> {
    let rows = tiling.rows();
    let threads = threads.clamp(1, rows);
    if threads == 1 {
        return vec![*tiling];
    }
    let region = tiling.region();
    let h = region.height() / rows;
    let remainder = region.height() % rows;
    // Rows that can be chunked freely (all but a remainder-absorbing
    // last row), and how many bands they get.
    let (uniform_rows, reserved) = if remainder > 0 {
        (rows - 1, 1)
    } else {
        (rows, 0)
    };
    let mut bands = Vec::with_capacity(threads);
    let band_count = (threads - reserved).min(uniform_rows).max(1);
    let per = uniform_rows / band_count;
    let extra = uniform_rows % band_count;
    let mut row = 0;
    for b in 0..band_count {
        let take = per + usize::from(b < extra);
        if take == 0 {
            continue;
        }
        let y0 = region.y0 + row * h;
        let y1 = region.y0 + (row + take) * h;
        let band = GridRect::unchecked(region.x0, y0, region.x1, y1);
        bands.push(Tiling::new(band, tiling.cols(), take).expect("uniform band divides evenly"));
        row += take;
    }
    if remainder > 0 {
        let y0 = region.y0 + uniform_rows * h;
        let band = GridRect::unchecked(region.x0, y0, region.x1, region.y1);
        bands.push(Tiling::new(band, tiling.cols(), 1).expect("single-row band is always valid"));
    }
    bands
}

/// `vec![BatchOutcome::Complete; n]`, but filled by block copies. The
/// element-wise fill of the two-byte enum never vectorizes,
/// and the sweep fast path builds this vector once per batch right on
/// the measured wall clock — block `memcpy`s are ~5x faster on dense
/// tilings.
fn all_complete(n: usize) -> Vec<BatchOutcome> {
    const BLOCK: [BatchOutcome; 256] = [BatchOutcome::Complete; 256];
    let mut v = Vec::with_capacity(n);
    while v.len() + BLOCK.len() <= n {
        v.extend_from_slice(&BLOCK);
    }
    v.resize(n, BatchOutcome::Complete);
    v
}

impl std::fmt::Debug for EstimatorEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorEngine")
            .field("estimator", &self.estimator.name())
            .field("threads", &self.threads)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_core::{EulerHistogram, LiveEulerHistogram, LiveSEuler, SEulerApprox};
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid, Snapper};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn setup(n_objects: usize) -> (Grid, SharedEstimator) {
        let grid = Grid::new(DataSpace::paper_world(), 40, 20).unwrap();
        let snapper = Snapper::new(grid);
        let mut rng = StdRng::seed_from_u64(9);
        let objects: Vec<_> = (0..n_objects)
            .map(|_| {
                let x = rng.gen_range(-180.0..170.0);
                let y = rng.gen_range(-90.0..80.0);
                let w = rng.gen_range(0.5..20.0);
                let h = rng.gen_range(0.5..15.0);
                snapper.snap(&Rect::new(x, y, (x + w).min(180.0), (y + h).min(90.0)).unwrap())
            })
            .collect();
        let est = SEulerApprox::new(EulerHistogram::build(grid, &objects).freeze());
        (grid, Arc::new(est))
    }

    #[test]
    fn parallel_matches_sequential() {
        let (grid, est) = setup(400);
        // A materialized slice batch keeps the chunked path under test
        // (a Tiling-shaped batch would dispatch the sweep evaluator).
        let queries: Vec<GridRect> = Tiling::new(grid.full(), 8, 5)
            .unwrap()
            .iter()
            .map(|(_, t)| t)
            .collect();
        let batch = QueryBatch::new(&queries);
        let seq = EstimatorEngine::new(est.clone()).with_threads(1);
        let seq_result = seq.run_batch(&batch);
        for threads in [2, 3, 4, 8] {
            let par = EstimatorEngine::new(est.clone()).with_threads(threads);
            let r = par.run_batch(&batch);
            assert_eq!(r.counts, seq_result.counts, "threads={threads}");
            assert_eq!(r.report.total, seq_result.report.total);
            assert_eq!(r.report.threads, threads);
        }
    }

    /// A Tiling-shaped batch on a sweep-capable estimator dispatches the
    /// sweep evaluator: same counts as the chunked path, one band per
    /// configured thread, and the recorder's sweep series sees the
    /// dispatch.
    #[test]
    fn tiling_batch_dispatches_sweep() {
        let (grid, est) = setup(400);
        assert!(est.supports_sweep());
        let tiling = Tiling::new(grid.full(), 8, 5).unwrap();
        let queries: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();

        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(est.clone())
            .threads(4)
            .recorder(recorder.clone())
            .build();
        let swept = engine.run_batch(&QueryBatch::from(&tiling));
        let chunked = engine.run_batch(&QueryBatch::new(&queries));

        assert_eq!(swept.counts, chunked.counts, "sweep must be bit-identical");
        assert_eq!(swept.report.total, chunked.report.total);
        assert_eq!(swept.report.threads, 4, "one band sweep per thread");
        assert_eq!(swept.report.queries, 40);

        let stats = recorder.snapshot();
        assert_eq!(stats.sweep_hits, 1, "only the tiling batch sweeps");
        assert_eq!(stats.tiling_latency.count(), 1);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, 80, "sweep telemetry stays tile-granular");
        assert_eq!(stats.query_latency.count(), 80);
    }

    /// Band splitting covers every remainder shape: bands hold whole
    /// tile rows, concatenate to the parent's row-major tile sequence
    /// exactly, and a remainder-absorbing last row is always alone.
    #[test]
    fn band_split_reproduces_tile_geometry() {
        let grid = Grid::new(DataSpace::paper_world(), 40, 20).unwrap();
        // (cols, rows) over the 40x20 full region: uniform (20 % 5 == 0),
        // remainder-absorbing (20 % 3 == 2, 20 % 7 == 6), single row.
        for (cols, rows) in [(8, 5), (8, 3), (5, 7), (4, 1), (40, 20)] {
            let tiling = Tiling::new(grid.full(), cols, rows).unwrap();
            let want: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();
            for threads in [1, 2, 3, 4, 8, 64] {
                let bands = band_split(&tiling, threads);
                assert!(!bands.is_empty() && bands.len() <= threads.clamp(1, rows));
                let got: Vec<GridRect> = bands
                    .iter()
                    .flat_map(|b| b.iter().map(|(_, t)| t))
                    .collect();
                assert_eq!(got, want, "cols={cols} rows={rows} threads={threads}");
                if !grid.full().height().is_multiple_of(rows) && bands.len() > 1 {
                    assert_eq!(bands.last().unwrap().rows(), 1, "remainder row rides alone");
                }
            }
        }
    }

    /// The parallel sweep is bit-identical to a single-thread sweep at
    /// every width, including widths beyond the row count.
    #[test]
    fn parallel_sweep_matches_single_thread() {
        let (grid, est) = setup(400);
        for (cols, rows) in [(8, 5), (8, 3), (5, 7)] {
            let tiling = Tiling::new(grid.full(), cols, rows).unwrap();
            let batch = QueryBatch::from(&tiling);
            let seq = EstimatorEngine::new(est.clone())
                .with_threads(1)
                .run_batch(&batch);
            assert_eq!(seq.report.threads, 1);
            for threads in [2, 4, 64] {
                let par = EstimatorEngine::new(est.clone())
                    .with_threads(threads)
                    .run_batch(&batch);
                assert_eq!(
                    par.counts, seq.counts,
                    "cols={cols} rows={rows} threads={threads}"
                );
                assert_eq!(par.report.total, seq.report.total);
                assert_eq!(par.report.threads, threads.min(rows));
                assert!(par.outcomes.iter().all(|o| *o == BatchOutcome::Complete));
            }
        }
    }

    /// A batch answered by an epoch-snapshot estimator is tagged with the
    /// pinned snapshot's epoch on both the sweep and the chunked path,
    /// and the recorder's gauge tracks the newest epoch seen. Estimators
    /// over plain summaries leave batches untagged and the gauge at zero.
    #[test]
    fn batches_carry_the_pinned_snapshot_epoch() {
        let grid = Grid::new(DataSpace::paper_world(), 40, 20).unwrap();
        let snapper = Snapper::new(grid);
        let live = LiveEulerHistogram::new(grid);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let x = rng.gen_range(-180.0..170.0);
            let y = rng.gen_range(-90.0..80.0);
            live.insert(&snapper.snap(&Rect::new(x, y, x + 4.0, y + 3.0).unwrap()));
        }
        live.refreeze(); // epoch 1 → 2

        let recorder = Recorder::shared();
        let est: SharedEstimator = Arc::new(LiveSEuler::new(live.pin()));
        let engine = EstimatorEngine::builder(est)
            .threads(4)
            .recorder(recorder.clone())
            .build();
        let tiling = Tiling::new(grid.full(), 8, 5).unwrap();
        let queries: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();
        let swept = engine.run_batch(&QueryBatch::from(&tiling));
        let chunked = engine.run_batch(&QueryBatch::new(&queries));
        assert_eq!(swept.report.epoch, Some(2), "sweep path tags the epoch");
        assert_eq!(chunked.report.epoch, Some(2), "chunked path tags the epoch");
        assert_eq!(recorder.snapshot().last_epoch, 2);

        let (_, frozen) = setup(10);
        let bare = Recorder::shared();
        let eng2 = EstimatorEngine::builder(frozen)
            .threads(2)
            .recorder(bare.clone())
            .build();
        let r = eng2.run_batch(&QueryBatch::new(&queries));
        assert_eq!(r.report.epoch, None);
        assert_eq!(bare.snapshot().last_epoch, 0);
    }

    /// Slice- and Vec-backed batches never dispatch the sweep path, even
    /// when the estimator could sweep.
    #[test]
    fn slice_batches_do_not_sweep() {
        let (grid, est) = setup(100);
        let tiling = Tiling::new(grid.full(), 4, 4).unwrap();
        let queries: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();
        assert!(QueryBatch::from(&tiling).tiling().is_some());
        assert!(QueryBatch::new(&queries).tiling().is_none());
        assert!(QueryBatch::from(queries.clone()).tiling().is_none());

        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(est)
            .threads(2)
            .recorder(recorder.clone())
            .build();
        engine.run_batch(&QueryBatch::new(&queries));
        engine.run_batch(&QueryBatch::from(queries.clone()));
        let stats = recorder.snapshot();
        assert_eq!(stats.sweep_hits, 0);
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn batch_order_is_tiling_order() {
        let (grid, est) = setup(100);
        let tiling = Tiling::new(grid.full(), 4, 4).unwrap();
        let engine = EstimatorEngine::new(est.clone()).with_threads(4);
        let r = engine.run_batch(&QueryBatch::from(&tiling));
        for (i, (_, tile)) in tiling.iter().enumerate() {
            assert_eq!(r.counts[i], est.estimate(&tile), "tile {tile}");
        }
    }

    #[test]
    fn slice_and_vec_batches() {
        let (_, est) = setup(50);
        let queries = vec![
            GridRect::unchecked(0, 0, 10, 10),
            GridRect::unchecked(10, 10, 20, 20),
            GridRect::unchecked(0, 0, 40, 20),
        ];
        let engine = EstimatorEngine::new(est).with_threads(2);
        let from_slice = engine.run_batch(&QueryBatch::new(&queries));
        let from_vec = engine.run_batch(&QueryBatch::from(queries.clone()));
        assert_eq!(from_slice.counts, from_vec.counts);
        assert_eq!(from_slice.counts.len(), 3);
        // Every S-EulerApprox estimate accounts for all objects.
        assert!(from_slice.counts.iter().all(|c| c.total() == 50));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, est) = setup(10);
        let engine = EstimatorEngine::new(est).with_threads(4);
        let r = engine.run_batch(&QueryBatch::new(&[]));
        assert!(r.counts.is_empty());
        assert_eq!(r.report.queries, 0);
        assert_eq!(r.report.mean_latency(), Duration::ZERO);
    }

    /// Regression: a zero-length batch must yield a well-defined report —
    /// no NaN or ∞ from the derived rates, and a renderable summary.
    #[test]
    fn empty_batch_report_has_finite_rates() {
        let (_, est) = setup(10);
        for threads in [1, 4] {
            let engine = EstimatorEngine::new(est.clone()).with_threads(threads);
            let report = engine.run_batch(&QueryBatch::new(&[])).report;
            assert_eq!(report.throughput_qps(), 0.0);
            assert!(report.throughput_qps().is_finite());
            assert!(!report.throughput_qps().is_nan());
            assert_eq!(report.mean_latency(), Duration::ZERO);
            assert!(report.summary().contains("0 queries"));
        }
        // A synthetic zero-elapsed (but non-empty) report is finite too.
        let report = BatchReport {
            estimator: "x",
            queries: 5,
            threads: 1,
            elapsed: Duration::ZERO,
            total: RelationCounts::default(),
            epoch: None,
        };
        assert!(report.throughput_qps().is_finite());
    }

    #[test]
    fn builder_configures_threads_and_recorder() {
        let (_, est) = setup(10);
        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(est)
            .threads(3)
            .recorder(recorder.clone())
            .build();
        assert_eq!(engine.threads(), 3);
        assert!(engine.recorder().is_some());
        assert!(format!("{engine:?}").contains("recorder: true"));
    }

    /// The recorder sees every query exactly once, whatever the thread
    /// count, and its relation totals match the clamped batch results.
    #[test]
    fn telemetry_counts_are_exact_across_thread_counts() {
        let (grid, est) = setup(300);
        let batch = QueryBatch::from(&Tiling::new(grid.full(), 8, 5).unwrap());
        for threads in [1usize, 2, 4, 8] {
            let recorder = Recorder::shared();
            let engine = EstimatorEngine::builder(est.clone())
                .threads(threads)
                .recorder(recorder.clone())
                .build();
            let r = engine.run_batch(&batch);
            // A second, recorder-less engine gives identical results.
            let bare = EstimatorEngine::new(est.clone()).with_threads(threads);
            assert_eq!(bare.run_batch(&batch).counts, r.counts);

            let stats = recorder.snapshot();
            assert_eq!(stats.queries, 40, "threads={threads}");
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.query_latency.count(), 40);
            assert_eq!(stats.batch_latency.count(), 1);
            let clamped: Vec<_> = r.counts.iter().map(|c| c.clamped()).collect();
            let sum = |f: fn(&RelationCounts) -> i64| -> u64 {
                clamped.iter().map(|c| f(c) as u64).sum()
            };
            assert_eq!(stats.relations.disjoint, sum(|c| c.disjoint));
            assert_eq!(stats.relations.contains, sum(|c| c.contains));
            assert_eq!(stats.relations.contained, sum(|c| c.contained));
            assert_eq!(stats.relations.overlaps, sum(|c| c.overlaps));
            assert_eq!(
                stats.objects_estimated,
                clamped.iter().map(|c| c.total() as u64).sum::<u64>()
            );
            assert!(stats.query_latency.p50() <= stats.query_latency.max());
        }
    }

    /// Running more batches accumulates telemetry; snapshots diff cleanly.
    #[test]
    fn telemetry_accumulates_and_diffs() {
        let (grid, est) = setup(50);
        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(est)
            .threads(2)
            .recorder(recorder.clone())
            .build();
        let batch = QueryBatch::from(&Tiling::new(grid.full(), 4, 4).unwrap());
        engine.run_batch(&batch);
        let before = recorder.snapshot();
        engine.run_batch(&batch);
        engine.run_batch(&batch);
        let delta = recorder.snapshot().delta_since(&before);
        assert_eq!(delta.queries, 32);
        assert_eq!(delta.batches, 2);
    }

    #[test]
    fn more_threads_than_queries() {
        let (_, est) = setup(10);
        let engine = EstimatorEngine::new(est).with_threads(64);
        let queries = [
            GridRect::unchecked(0, 0, 5, 5),
            GridRect::unchecked(5, 5, 10, 10),
        ];
        let r = engine.run_batch(&QueryBatch::new(&queries));
        assert_eq!(r.counts.len(), 2);
        assert_eq!(r.report.threads, 2, "workers capped at batch size");
    }

    #[test]
    fn report_summary_mentions_estimator() {
        let (grid, est) = setup(20);
        let engine = EstimatorEngine::new(est).with_threads(2);
        let r = engine.run_batch(&QueryBatch::from(&Tiling::new(grid.full(), 2, 2).unwrap()));
        let s = r.report.summary();
        assert!(s.contains("S-EulerApprox"), "{s}");
        assert!(s.contains("4 queries"), "{s}");
        assert!(r.report.throughput_qps() > 0.0);
    }

    #[test]
    fn clean_runs_report_complete_outcomes() {
        let (grid, est) = setup(100);
        let engine = EstimatorEngine::new(est).with_threads(4);
        let r = engine.run_batch(&QueryBatch::from(&Tiling::new(grid.full(), 5, 4).unwrap()));
        assert!(r.is_complete());
        assert_eq!(r.outcomes, vec![BatchOutcome::Complete; 20]);
        assert!(r.errors.is_empty());
        assert_eq!(r.completed(), 20);
        assert_eq!((r.degraded(), r.failed()), (0, 0));
        assert_eq!(r.overall(), OutcomeLabel::Complete);
    }

    /// Wraps an estimator so one specific query panics — a poisoned
    /// query, with an [`faults::InjectedPanic`] payload so the expected
    /// panic stays out of the test output.
    struct PanicOn {
        inner: SharedEstimator,
        poison: GridRect,
    }

    impl Level2Estimator for PanicOn {
        fn name(&self) -> &'static str {
            "PanicOn"
        }
        fn estimate(&self, q: &GridRect) -> RelationCounts {
            if *q == self.poison {
                std::panic::panic_any(faults::InjectedPanic {
                    site: FaultSite::Chunk,
                    index: usize::MAX,
                });
            }
            self.inner.estimate(q)
        }
        fn object_count(&self) -> u64 {
            self.inner.object_count()
        }
        fn storage_cells(&self) -> u64 {
            self.inner.storage_cells()
        }
    }

    /// Sweep-capable wrapper whose sweep kernel always panics; per-query
    /// estimates delegate unchanged.
    struct SweepPanics {
        inner: SharedEstimator,
    }

    impl Level2Estimator for SweepPanics {
        fn name(&self) -> &'static str {
            "SweepPanics"
        }
        fn estimate(&self, q: &GridRect) -> RelationCounts {
            self.inner.estimate(q)
        }
        fn object_count(&self) -> u64 {
            self.inner.object_count()
        }
        fn storage_cells(&self) -> u64 {
            self.inner.storage_cells()
        }
        fn estimate_tiling(&self, _t: &Tiling) -> Vec<RelationCounts> {
            std::panic::panic_any(faults::InjectedPanic {
                site: FaultSite::Sweep,
                index: usize::MAX,
            });
        }
        fn supports_sweep(&self) -> bool {
            true
        }
    }

    /// Wraps an estimator so every query takes at least `delay` — slow
    /// enough for a deadline to trip mid-batch.
    struct Slow {
        inner: SharedEstimator,
        delay: Duration,
    }

    impl Level2Estimator for Slow {
        fn name(&self) -> &'static str {
            "Slow"
        }
        fn estimate(&self, q: &GridRect) -> RelationCounts {
            std::thread::sleep(self.delay);
            self.inner.estimate(q)
        }
        fn object_count(&self) -> u64 {
            self.inner.object_count()
        }
        fn storage_cells(&self) -> u64 {
            self.inner.storage_cells()
        }
    }

    /// One poisoned query fails exactly its chunk; every other chunk's
    /// results are kept bit-identical to the fault-free run, and the
    /// process survives (the old `.expect("engine worker panicked")`
    /// would have aborted it).
    #[test]
    fn worker_panic_fails_only_its_chunk() {
        faults::silence_injected_panics();
        let (grid, est) = setup(300);
        let queries: Vec<GridRect> = Tiling::new(grid.full(), 8, 5)
            .unwrap()
            .iter()
            .map(|(_, t)| t)
            .collect();
        let baseline = EstimatorEngine::new(est.clone())
            .with_threads(1)
            .run_batch(&QueryBatch::new(&queries));

        // 40 queries / 4 threads = 4 chunks of 10; poison query 25 →
        // chunk 2 (queries 20..30) fails.
        let poisoned: SharedEstimator = Arc::new(PanicOn {
            inner: est,
            poison: queries[25],
        });
        let engine = EstimatorEngine::new(poisoned).with_threads(4);
        let r = engine.run_batch(&QueryBatch::new(&queries));

        assert_eq!(r.failed(), 10);
        assert_eq!(r.completed(), 30);
        for (i, (outcome, count)) in r.outcomes.iter().zip(&r.counts).enumerate() {
            if (20..30).contains(&i) {
                assert_eq!(*outcome, BatchOutcome::Failed(FailReason::Panicked), "{i}");
                assert_eq!(*count, RelationCounts::default(), "{i}");
            } else {
                assert_eq!(*outcome, BatchOutcome::Complete, "{i}");
                assert_eq!(*count, baseline.counts[i], "query {i} not bit-identical");
            }
        }
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].chunk, 2);
        assert_eq!(r.errors[0].queries, 20..30);
        assert_eq!(r.errors[0].reason, FailReason::Panicked);
        assert!(r.errors[0].message.contains("injected fault"));
        assert_eq!(r.overall(), OutcomeLabel::Failed);
        // The report total sums only delivered results.
        let delivered: RelationCounts = r
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| !(20..30).contains(i))
            .fold(RelationCounts::default(), |acc, (_, c)| acc.add(c));
        assert_eq!(r.report.total, delivered);
    }

    /// A panicking sweep kernel degrades to the per-tile loop: every
    /// query still answered, bit-identical, outcomes say so, and the
    /// fault is logged and counted.
    #[test]
    fn sweep_panic_degrades_to_per_tile_loop() {
        faults::silence_injected_panics();
        let (grid, est) = setup(200);
        let tiling = Tiling::new(grid.full(), 6, 5).unwrap();
        let baseline = EstimatorEngine::new(est.clone()).run_batch(&QueryBatch::from(&tiling));
        assert!(baseline.is_complete());

        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(Arc::new(SweepPanics { inner: est }))
            .threads(2)
            .recorder(recorder.clone())
            .build();
        let r = engine.run_batch(&QueryBatch::from(&tiling));

        assert_eq!(r.counts, baseline.counts, "fallback must be lossless");
        assert_eq!(
            r.outcomes,
            vec![BatchOutcome::Degraded(DegradeReason::SweepPanic); 30]
        );
        assert_eq!(r.degraded(), 30);
        assert_eq!(r.overall(), OutcomeLabel::Degraded);
        assert_eq!(r.errors.len(), 1);
        assert!(r.errors[0].message.contains("sweep evaluator panicked"));

        let stats = recorder.snapshot();
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(stats.degraded_sweeps, 1);
        assert_eq!(stats.sweep_hits, 0, "the failed sweep is not a dispatch");
        assert_eq!(stats.queries, 30, "per-tile fallback telemetry is exact");
        assert_eq!(stats.batch_degraded_latency.count(), 1);
    }

    /// An armed deadline keeps the sweep:
    /// the batch is swept once, delivered `Complete`, and matches the
    /// uncontrolled sweep's counts.
    #[test]
    fn armed_controls_keep_the_sweep() {
        let (grid, est) = setup(200);
        assert!(est.supports_sweep());
        let tiling = Tiling::new(grid.full(), 6, 5).unwrap();
        let swept = EstimatorEngine::new(est.clone()).run_batch(&QueryBatch::from(&tiling));
        assert!(swept.is_complete());

        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(est)
            .threads(2)
            .recorder(recorder.clone())
            .build();
        let opts = BatchOptions::new().deadline(Duration::from_secs(3600));
        let r = engine.run_batch_with(&QueryBatch::from(&tiling), &opts);

        assert_eq!(r.counts, swept.counts, "controls must not change counts");
        assert_eq!(r.outcomes, vec![BatchOutcome::Complete; 30]);
        assert!(r.errors.is_empty());
        let stats = recorder.snapshot();
        assert_eq!(stats.sweep_hits, 1);
        assert_eq!(stats.degraded_sweeps, 0);
        assert_eq!(stats.panics_caught, 0);
    }

    /// An expired deadline yields partial results: an answered prefix
    /// (bit-identical to the fault-free run) and a `Failed` tail, cut
    /// before the first query that starts past the deadline.
    #[test]
    fn deadline_returns_partial_results() {
        let (grid, est) = setup(50);
        let queries: Vec<GridRect> = Tiling::new(grid.full(), 8, 5)
            .unwrap()
            .iter()
            .map(|(_, t)| t)
            .collect();
        let baseline = EstimatorEngine::new(est.clone())
            .with_threads(1)
            .run_batch(&QueryBatch::new(&queries));

        let slow: SharedEstimator = Arc::new(Slow {
            inner: est,
            delay: Duration::from_millis(2),
        });
        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(slow)
            .threads(1)
            .recorder(recorder.clone())
            .build();
        let opts = BatchOptions::new().deadline(Duration::from_millis(10));
        let r = engine.run_batch_with(&QueryBatch::new(&queries), &opts);

        assert!(r.completed() >= 1, "deadline allows at least one query");
        assert!(r.failed() >= 1, "40 x 2 ms cannot fit a 10 ms budget");
        assert_eq!(r.completed() + r.failed(), 40);
        // The answered prefix is contiguous and bit-identical.
        for i in 0..r.completed() {
            assert_eq!(r.outcomes[i], BatchOutcome::Complete, "{i}");
            assert_eq!(r.counts[i], baseline.counts[i], "{i}");
        }
        for i in r.completed()..40 {
            assert_eq!(
                r.outcomes[i],
                BatchOutcome::Failed(FailReason::DeadlineExceeded),
                "{i}"
            );
            assert_eq!(r.counts[i], RelationCounts::default(), "{i}");
        }
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].reason, FailReason::DeadlineExceeded);
        let stats = recorder.snapshot();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.queries, r.completed() as u64);
        assert_eq!(stats.batch_failed_latency.count(), 1);
    }

    /// A zero deadline fails the whole batch before any query runs.
    #[test]
    fn pre_tripped_controls_fail_fast() {
        let (grid, est) = setup(50);
        let batch = QueryBatch::from(&Tiling::new(grid.full(), 4, 4).unwrap());
        let engine = EstimatorEngine::new(est).with_threads(4);

        let r = engine.run_batch_with(&batch, &BatchOptions::new().deadline(Duration::ZERO));
        assert_eq!(
            r.outcomes,
            vec![BatchOutcome::Failed(FailReason::DeadlineExceeded); 16]
        );
        assert_eq!(r.report.total, RelationCounts::default());
        assert!(r.errors[0].message.contains("before the batch started"));
        assert_eq!(r.overall(), OutcomeLabel::Failed);
    }

    /// Satellite: telemetry stays consistent when a chunk fails mid-batch
    /// — surviving shards fold (none lost), `panics_caught` increments
    /// exactly once per injected fault, and the snapshot still renders.
    #[test]
    fn telemetry_survives_a_failing_chunk() {
        faults::silence_injected_panics();
        let (grid, est) = setup(300);
        let queries: Vec<GridRect> = Tiling::new(grid.full(), 8, 5)
            .unwrap()
            .iter()
            .map(|(_, t)| t)
            .collect();
        // Poison the *first* query of chunk 2, so the failing chunk
        // contributes exactly zero telemetry and the other three chunks
        // contribute exactly 30 queries.
        let poisoned: SharedEstimator = Arc::new(PanicOn {
            inner: est,
            poison: queries[20],
        });
        let recorder = Recorder::shared();
        let engine = EstimatorEngine::builder(poisoned)
            .threads(4)
            .recorder(recorder.clone())
            .build();

        let r = engine.run_batch(&QueryBatch::new(&queries));
        let stats = recorder.snapshot();
        assert_eq!(stats.queries, 30, "three surviving shards fold");
        assert_eq!(stats.query_latency.count(), 30);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.panics_caught, 1, "exactly once per injected fault");
        assert_eq!(stats.batch_failed_latency.count(), 1);
        // Folded relation totals equal the delivered clamped results.
        let clamped: Vec<_> = r
            .counts
            .iter()
            .zip(&r.outcomes)
            .filter(|(_, o)| o.is_delivered())
            .map(|(c, _)| c.clamped())
            .collect();
        assert_eq!(
            stats.objects_estimated,
            clamped.iter().map(|c| c.total() as u64).sum::<u64>()
        );
        // A second faulted batch increments the counter exactly once more.
        engine.run_batch(&QueryBatch::new(&queries));
        assert_eq!(recorder.snapshot().panics_caught, 2);
        // The snapshot still renders its tables.
        let rendered = recorder.snapshot().render();
        assert!(rendered.contains("panics caught"));
        assert!(rendered.contains("batch/failed"));
    }

    /// Fail-point facility: a seeded plan injects a chunk panic at an
    /// exact position, the run degrades exactly as the plan says, and
    /// disarming the plan restores bit-identical fault-free behaviour.
    /// (Compiled only with `--features failpoints`; the CI `faults` job
    /// runs it.)
    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoint_plan_injects_and_disarms() {
        use faults::{FaultKind, FaultPlan, FaultSite};
        faults::silence_injected_panics();
        let (grid, est) = setup(200);
        let queries: Vec<GridRect> = Tiling::new(grid.full(), 8, 5)
            .unwrap()
            .iter()
            .map(|(_, t)| t)
            .collect();
        let engine = EstimatorEngine::new(est.clone()).with_threads(4);
        let baseline = engine.run_batch(&QueryBatch::new(&queries));
        assert!(baseline.is_complete());

        {
            let _guard =
                faults::install(FaultPlan::new().with(FaultSite::Chunk, 1, FaultKind::Panic));
            let r = engine.run_batch(&QueryBatch::new(&queries));
            assert_eq!(r.failed(), 10, "exactly the armed chunk fails");
            assert_eq!(r.errors.len(), 1);
            assert_eq!(r.errors[0].chunk, 1);
            for i in (0..10).chain(20..40) {
                assert_eq!(r.counts[i], baseline.counts[i], "{i}");
                assert_eq!(r.outcomes[i], BatchOutcome::Complete, "{i}");
            }
        }
        // Guard dropped: the plan is disarmed and runs are clean again.
        let again = engine.run_batch(&QueryBatch::new(&queries));
        assert!(again.is_complete());
        assert_eq!(again.counts, baseline.counts);
    }

    /// Fail-point facility on the sweep site: the armed sweep panic
    /// degrades a tiling batch to the (bit-identical) per-tile loop, and
    /// an armed stall forces a deadline overrun.
    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoint_sweep_panic_and_stall() {
        use faults::{FaultKind, FaultPlan, FaultSite};
        faults::silence_injected_panics();
        let (grid, est) = setup(200);
        let tiling = Tiling::new(grid.full(), 6, 5).unwrap();
        let engine = EstimatorEngine::new(est.clone()).with_threads(2);
        let baseline = engine.run_batch(&QueryBatch::from(&tiling));

        {
            let _guard =
                faults::install(FaultPlan::new().with(FaultSite::Sweep, 0, FaultKind::Panic));
            let r = engine.run_batch(&QueryBatch::from(&tiling));
            assert_eq!(r.counts, baseline.counts);
            assert_eq!(r.degraded(), 30);
            assert!(r.errors[0].message.contains("sweep evaluator panicked"));
        }

        {
            // A stall longer than the deadline at the head of chunk 0:
            // the batch must come back (partial), not hang or die.
            let _guard =
                faults::install(FaultPlan::new().with(FaultSite::Chunk, 0, FaultKind::StallMs(50)));
            let queries: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();
            let opts = BatchOptions::new().deadline(Duration::from_millis(5));
            let r = EstimatorEngine::new(est.clone())
                .with_threads(1)
                .run_batch_with(&QueryBatch::new(&queries), &opts);
            assert_eq!(r.completed(), 0, "stall consumed the whole budget");
            assert_eq!(
                r.outcomes,
                vec![BatchOutcome::Failed(FailReason::DeadlineExceeded); 30]
            );
        }
    }
}
