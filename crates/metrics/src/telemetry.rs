//! Always-on telemetry for the query hot path: lock-free counters and
//! fixed-bucket log-scale latency histograms, read out as cheap, diffable
//! snapshots.
//!
//! The paper's headline performance claim — constant per-query time for
//! every Euler estimator (Figure 19) — is a *distributional* claim, so the
//! service layer needs latency percentiles, not just the per-batch mean
//! that a wall-clock stopwatch gives. This module provides:
//!
//! * [`Counter`] — a relaxed atomic event counter;
//! * [`LatencyHistogram`] — a fixed-size log-scale histogram of
//!   nanosecond samples (4 sub-buckets per power of two, ≤ 25 % relative
//!   bucket error, ~2 KiB) that threads record into without locking;
//! * [`TelemetryShard`] — a plain, worker-local accumulator for tight
//!   loops: record with zero synchronization, then fold the whole shard
//!   into a [`Recorder`] once at join (the same shard-and-fold pattern as
//!   the engine's per-worker result accumulation);
//! * [`Recorder`] — the registry the hot path reports through: queries
//!   served, batches, objects estimated, per-relation totals,
//!   zero-hit/mega-hit tiles, sweep-path dispatches, and
//!   query/batch/tiling latency histograms;
//! * [`TelemetrySnapshot`] / [`HistogramSnapshot`] — point-in-time
//!   readouts with `p50/p95/p99/max` quantiles, subtractable
//!   ([`TelemetrySnapshot::delta_since`]) for per-window reporting and
//!   renderable as the text tables EXPERIMENTS.md uses.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use crate::TextTable;

/// Sub-bucket resolution: 2 bits = 4 sub-buckets per power of two, so a
/// bucket's upper bound overshoots a sample by at most 25 %.
const SUB_BITS: u32 = 2;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Number of histogram buckets: 4 exact buckets for 0–3 ns plus 4
/// sub-buckets for each octave `[2^k, 2^(k+1))`, `k = 2..=63` — the full
/// `u64` nanosecond range in 252 slots.
pub const LATENCY_BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB_COUNT as usize) + 4;

/// The bucket a nanosecond sample lands in.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_COUNT {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = ((ns >> (octave - SUB_BITS)) & (SUB_COUNT as u32 - 1) as u64) as u32;
    ((octave - SUB_BITS + 1) * SUB_COUNT as u32 + sub) as usize
}

/// Largest nanosecond value mapping to bucket `idx` (inclusive).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_COUNT as usize {
        return idx as u64;
    }
    let group = (idx / SUB_COUNT as usize) as u32;
    let sub = (idx % SUB_COUNT as usize) as u128;
    let octave = group + SUB_BITS - 1;
    let upper = (1u128 << octave) + (sub + 1) * (1u128 << (octave - SUB_BITS)) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// Smallest nanosecond value mapping to bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        bucket_upper(idx - 1).saturating_add(1)
    }
}

fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Human-readable rendering of a duration at nanosecond precision
/// ("142 ns", "3.54 µs", "1.20 ms") — the format used by
/// [`TelemetrySnapshot::render`], exposed for report binaries that build
/// their own latency tables.
pub fn fmt_duration(d: Duration) -> String {
    fmt_ns(saturating_ns(d))
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// A lock-free event counter (relaxed ordering — totals are exact, only
/// inter-counter ordering is unspecified).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Per-relation estimate totals (clamped counts, so they are plain sums).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationTally {
    /// Total `disjoint` estimates.
    pub disjoint: u64,
    /// Total `contains` estimates.
    pub contains: u64,
    /// Total `contained` estimates.
    pub contained: u64,
    /// Total `overlap` estimates.
    pub overlaps: u64,
}

impl RelationTally {
    /// A tally with the given per-relation counts.
    pub fn new(disjoint: u64, contains: u64, contained: u64, overlaps: u64) -> RelationTally {
        RelationTally {
            disjoint,
            contains,
            contained,
            overlaps,
        }
    }

    /// Sum across the four relations.
    pub fn total(&self) -> u64 {
        self.disjoint + self.contains + self.contained + self.overlaps
    }

    /// Component-wise accumulate.
    pub fn merge(&mut self, other: &RelationTally) {
        self.disjoint += other.disjoint;
        self.contains += other.contains;
        self.contained += other.contained;
        self.overlaps += other.overlaps;
    }
}

/// A fixed-bucket log-scale latency histogram threads record into without
/// locking. ~2 KiB of relaxed atomics; every operation is wait-free.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        self.record_ns(saturating_ns(latency));
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.min_ns.fetch_min(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Folds a worker-local histogram in (one atomic add per touched
    /// bucket — the join-time half of shard-and-fold).
    pub fn absorb(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (slot, &c) in self.buckets.iter().zip(&local.buckets) {
            if c != 0 {
                slot.fetch_add(c, Relaxed);
            }
        }
        self.count.fetch_add(local.count, Relaxed);
        self.sum_ns.fetch_add(local.sum_ns, Relaxed);
        self.min_ns.fetch_min(local.min_ns, Relaxed);
        self.max_ns.fetch_max(local.max_ns, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// A point-in-time copy (consistent enough for reporting: counts are
    /// monotone, and concurrent records may or may not be included).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum_ns: self.sum_ns.load(Relaxed),
            min_ns: self.min_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
        }
    }
}

/// A worker-local, synchronization-free latency histogram: record in a
/// tight loop, then fold into a [`LatencyHistogram`] (or a [`Recorder`]
/// via [`TelemetryShard`]) once at join.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(saturating_ns(latency));
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` samples of `ns` nanoseconds each in one update: the
    /// same histogram as `n` calls to [`Self::record_ns`].
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(ns)] += n;
        self.count += n;
        self.sum_ns += ns * n;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// A point-in-time histogram readout with quantile accessors.
///
/// Quantiles come from the log-scale buckets: the returned value is the
/// upper bound of the bucket holding the requested rank, clamped into the
/// exact observed `[min, max]` — so every quantile brackets the recorded
/// samples, `p50 ≤ p95 ≤ p99 ≤ max` always holds, and [`Self::max`] is
/// the exact largest sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        self.sum_ns
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Exact smallest recorded sample (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_ns)
        }
    }

    /// Exact largest recorded sample (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`; zero when empty).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Duration::from_nanos(bucket_upper(i).clamp(self.min_ns, self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// The samples recorded after `earlier` was taken (both snapshots must
    /// come from the same histogram). Bucket counts and totals subtract
    /// exactly; the window's min/max are reconstructed from its occupied
    /// buckets (exact extremes are not recoverable from a diff).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let (mut min_ns, mut max_ns) = (u64::MAX, 0);
        if count > 0 {
            if let Some(first) = buckets.iter().position(|&c| c > 0) {
                min_ns = bucket_lower(first).max(self.min_ns);
            }
            if let Some(last) = buckets.iter().rposition(|&c| c > 0) {
                max_ns = bucket_upper(last).min(self.max_ns);
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            min_ns,
            max_ns,
        }
    }
}

/// The resilience outcome class of a finished batch, as the engine's
/// degradation ladder reports it: `Complete` (every query answered on the
/// intended path), `Degraded` (every query answered, but on a fallback
/// path), `Failed` (at least one query produced no result). Used to label
/// the per-outcome batch-latency histograms a [`Recorder`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeLabel {
    /// All queries answered on the intended path.
    Complete,
    /// All queries answered, some on a fallback path.
    Degraded,
    /// At least one query produced no result.
    Failed,
}

/// A worker-local telemetry accumulator: everything a hot loop records,
/// with zero synchronization. Fold it into the shared [`Recorder`] once
/// at join with [`Recorder::absorb`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryShard {
    queries: u64,
    objects_estimated: u64,
    relations: RelationTally,
    latency: LocalHistogram,
}

impl TelemetryShard {
    /// An empty shard.
    pub fn new() -> TelemetryShard {
        TelemetryShard::default()
    }

    /// Records one served query: its latency and the (clamped) estimate
    /// it produced.
    pub fn record_query(&mut self, latency: Duration, estimate: RelationTally) {
        self.record_queries(latency, 1, estimate);
    }

    /// Records `n` served queries of `latency` each whose (clamped)
    /// estimates sum to `estimates`: the same shard as `n` calls to
    /// [`Self::record_query`].
    pub fn record_queries(&mut self, latency: Duration, n: u64, estimates: RelationTally) {
        self.queries += n;
        self.objects_estimated += estimates.total();
        self.relations.merge(&estimates);
        self.latency.record_n(saturating_ns(latency), n);
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

/// The shared telemetry registry of the query hot path.
///
/// All recording is lock-free (relaxed atomics); workers in a tight loop
/// should prefer a [`TelemetryShard`] folded in once via
/// [`Recorder::absorb`], which touches the shared cache lines once per
/// batch instead of once per query.
#[derive(Debug, Default)]
pub struct Recorder {
    queries: Counter,
    batches: Counter,
    objects_estimated: Counter,
    zero_hits: Counter,
    mega_hits: Counter,
    sweep_hits: Counter,
    panics_caught: Counter,
    deadline_exceeded: Counter,
    degraded_sweeps: Counter,
    disjoint: Counter,
    contains: Counter,
    contained: Counter,
    overlaps: Counter,
    /// Highest ingest epoch any recorded batch was answered from — a
    /// gauge, not a counter (see [`Recorder::record_epoch`]).
    last_epoch: AtomicU64,
    query_latency: LatencyHistogram,
    batch_latency: LatencyHistogram,
    tiling_latency: LatencyHistogram,
    batch_complete_latency: LatencyHistogram,
    batch_degraded_latency: LatencyHistogram,
    batch_failed_latency: LatencyHistogram,
}

impl Recorder {
    /// A fresh, zeroed recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A fresh recorder behind an [`Arc`] (the shape the engine and
    /// services share).
    pub fn shared() -> Arc<Recorder> {
        Arc::new(Recorder::new())
    }

    /// Records one served query directly (concurrent-safe; prefer a
    /// [`TelemetryShard`] inside tight loops).
    pub fn record_query(&self, latency: Duration, estimate: RelationTally) {
        self.queries.incr();
        self.objects_estimated.add(estimate.total());
        self.disjoint.add(estimate.disjoint);
        self.contains.add(estimate.contains);
        self.contained.add(estimate.contained);
        self.overlaps.add(estimate.overlaps);
        self.query_latency.record(latency);
    }

    /// Records one completed batch and its wall-clock latency.
    pub fn record_batch(&self, latency: Duration) {
        self.batches.incr();
        self.batch_latency.record(latency);
    }

    /// Counts tiles that matched nothing (the zero-hit advice signal).
    pub fn add_zero_hits(&self, n: u64) {
        self.zero_hits.add(n);
    }

    /// Counts tiles over the mega-hit threshold.
    pub fn add_mega_hits(&self, n: u64) {
        self.mega_hits.add(n);
    }

    /// Records one tiling-shaped batch answered by the sweep evaluator:
    /// bumps the sweep-dispatch counter and records the whole-tiling
    /// wall-clock latency.
    pub fn record_sweep(&self, latency: Duration) {
        self.sweep_hits.incr();
        self.tiling_latency.record(latency);
    }

    /// Counts one worker/sweep panic the engine caught and contained
    /// (exactly one increment per caught fault, however many queries the
    /// poisoned chunk held).
    pub fn record_panic_caught(&self) {
        self.panics_caught.incr();
    }

    /// Counts one batch that hit its deadline (or cancel flag) and
    /// returned partial results.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.incr();
    }

    /// Counts one tiling-shaped batch that fell from the sweep evaluator
    /// back to the per-tile loop (degradation ladder step 1).
    pub fn record_degraded_sweep(&self) {
        self.degraded_sweeps.incr();
    }

    /// Records the ingest epoch a batch's answers came from (the epoch of
    /// the snapshot the estimator pinned). Kept as a **gauge** — the
    /// maximum epoch seen, so concurrent batches racing across a refreeze
    /// settle on the newest — with 0 meaning "no epoch-tagged batch yet"
    /// (live epochs start at 1).
    pub fn record_epoch(&self, epoch: u64) {
        self.last_epoch.fetch_max(epoch, Relaxed);
    }

    /// Records one finished batch into the latency histogram of its
    /// resilience outcome class (in addition to [`Self::record_batch`],
    /// which stays outcome-blind).
    pub fn record_batch_outcome(&self, outcome: OutcomeLabel, latency: Duration) {
        match outcome {
            OutcomeLabel::Complete => self.batch_complete_latency.record(latency),
            OutcomeLabel::Degraded => self.batch_degraded_latency.record(latency),
            OutcomeLabel::Failed => self.batch_failed_latency.record(latency),
        }
    }

    /// Folds a worker shard in: one atomic add per counter and touched
    /// bucket, regardless of how many queries the shard saw.
    pub fn absorb(&self, shard: &TelemetryShard) {
        if shard.queries == 0 {
            return;
        }
        self.queries.add(shard.queries);
        self.objects_estimated.add(shard.objects_estimated);
        self.disjoint.add(shard.relations.disjoint);
        self.contains.add(shard.relations.contains);
        self.contained.add(shard.relations.contained);
        self.overlaps.add(shard.relations.overlaps);
        self.query_latency.absorb(&shard.latency);
    }

    /// Total queries served.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Total batches completed.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// A point-in-time readout of every counter and histogram.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            queries: self.queries.get(),
            batches: self.batches.get(),
            objects_estimated: self.objects_estimated.get(),
            zero_hits: self.zero_hits.get(),
            mega_hits: self.mega_hits.get(),
            sweep_hits: self.sweep_hits.get(),
            panics_caught: self.panics_caught.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            degraded_sweeps: self.degraded_sweeps.get(),
            relations: RelationTally::new(
                self.disjoint.get(),
                self.contains.get(),
                self.contained.get(),
                self.overlaps.get(),
            ),
            last_epoch: self.last_epoch.load(Relaxed),
            query_latency: self.query_latency.snapshot(),
            batch_latency: self.batch_latency.snapshot(),
            tiling_latency: self.tiling_latency.snapshot(),
            batch_complete_latency: self.batch_complete_latency.snapshot(),
            batch_degraded_latency: self.batch_degraded_latency.snapshot(),
            batch_failed_latency: self.batch_failed_latency.snapshot(),
        }
    }
}

/// A point-in-time readout of a [`Recorder`]: counters plus latency
/// distributions. Subtract two snapshots with [`Self::delta_since`] for
/// per-window stats; render with [`Self::render`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Queries served.
    pub queries: u64,
    /// Batches completed.
    pub batches: u64,
    /// Objects accounted across all estimates.
    pub objects_estimated: u64,
    /// Tiles whose estimate matched nothing.
    pub zero_hits: u64,
    /// Tiles whose estimate exceeded the mega-hit threshold.
    pub mega_hits: u64,
    /// Tiling-shaped batches answered by the sweep evaluator.
    pub sweep_hits: u64,
    /// Worker/sweep panics caught and contained by the engine.
    pub panics_caught: u64,
    /// Batches that hit their deadline (or cancel flag) and returned
    /// partial results.
    pub deadline_exceeded: u64,
    /// Tiling-shaped batches that fell from the sweep evaluator back to
    /// the per-tile loop.
    pub degraded_sweeps: u64,
    /// Per-relation estimate totals.
    pub relations: RelationTally,
    /// Highest ingest epoch any recorded batch was answered from (0 when
    /// no epoch-tagged batch has run). A gauge: [`Self::delta_since`]
    /// carries the later snapshot's value instead of subtracting.
    pub last_epoch: u64,
    /// Per-query latency distribution.
    pub query_latency: HistogramSnapshot,
    /// Per-batch wall-clock latency distribution.
    pub batch_latency: HistogramSnapshot,
    /// Whole-tiling wall-clock latency distribution of sweep dispatches.
    pub tiling_latency: HistogramSnapshot,
    /// Wall-clock latency of batches whose every query completed on the
    /// intended path.
    pub batch_complete_latency: HistogramSnapshot,
    /// Wall-clock latency of batches answered entirely on a fallback path.
    pub batch_degraded_latency: HistogramSnapshot,
    /// Wall-clock latency of batches with at least one unanswered query.
    pub batch_failed_latency: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// Activity since `earlier` (a snapshot of the same recorder).
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut relations = self.relations;
        relations.disjoint = relations
            .disjoint
            .saturating_sub(earlier.relations.disjoint);
        relations.contains = relations
            .contains
            .saturating_sub(earlier.relations.contains);
        relations.contained = relations
            .contained
            .saturating_sub(earlier.relations.contained);
        relations.overlaps = relations
            .overlaps
            .saturating_sub(earlier.relations.overlaps);
        TelemetrySnapshot {
            queries: self.queries.saturating_sub(earlier.queries),
            batches: self.batches.saturating_sub(earlier.batches),
            objects_estimated: self
                .objects_estimated
                .saturating_sub(earlier.objects_estimated),
            zero_hits: self.zero_hits.saturating_sub(earlier.zero_hits),
            mega_hits: self.mega_hits.saturating_sub(earlier.mega_hits),
            sweep_hits: self.sweep_hits.saturating_sub(earlier.sweep_hits),
            panics_caught: self.panics_caught.saturating_sub(earlier.panics_caught),
            deadline_exceeded: self
                .deadline_exceeded
                .saturating_sub(earlier.deadline_exceeded),
            degraded_sweeps: self.degraded_sweeps.saturating_sub(earlier.degraded_sweeps),
            relations,
            // Gauge, not counter: the window's value is the latest one.
            last_epoch: self.last_epoch,
            query_latency: self.query_latency.delta_since(&earlier.query_latency),
            batch_latency: self.batch_latency.delta_since(&earlier.batch_latency),
            tiling_latency: self.tiling_latency.delta_since(&earlier.tiling_latency),
            batch_complete_latency: self
                .batch_complete_latency
                .delta_since(&earlier.batch_complete_latency),
            batch_degraded_latency: self
                .batch_degraded_latency
                .delta_since(&earlier.batch_degraded_latency),
            batch_failed_latency: self
                .batch_failed_latency
                .delta_since(&earlier.batch_failed_latency),
        }
    }

    /// Renders the snapshot as the two text tables EXPERIMENTS.md uses:
    /// counters, then latency distributions.
    pub fn render(&self) -> String {
        let mut counters = TextTable::new(&["metric", "total"]);
        for (name, v) in [
            ("queries", self.queries),
            ("batches", self.batches),
            ("objects estimated", self.objects_estimated),
            ("zero-hit tiles", self.zero_hits),
            ("mega-hit tiles", self.mega_hits),
            ("sweep dispatches", self.sweep_hits),
            ("panics caught", self.panics_caught),
            ("deadlines exceeded", self.deadline_exceeded),
            ("degraded sweeps", self.degraded_sweeps),
            ("disjoint total", self.relations.disjoint),
            ("contains total", self.relations.contains),
            ("contained total", self.relations.contained),
            ("overlap total", self.relations.overlaps),
            ("last epoch", self.last_epoch),
        ] {
            counters.row(&[name.to_string(), v.to_string()]);
        }

        let mut latency = TextTable::new(&["series", "count", "mean", "p50", "p95", "p99", "max"]);
        for (name, h) in [
            ("query", &self.query_latency),
            ("batch", &self.batch_latency),
            ("tiling", &self.tiling_latency),
            ("batch/complete", &self.batch_complete_latency),
            ("batch/degraded", &self.batch_degraded_latency),
            ("batch/failed", &self.batch_failed_latency),
        ] {
            latency.row(&[
                name.to_string(),
                h.count().to_string(),
                fmt_ns(saturating_ns(h.mean())),
                fmt_ns(saturating_ns(h.p50())),
                fmt_ns(saturating_ns(h.p95())),
                fmt_ns(saturating_ns(h.p99())),
                fmt_ns(saturating_ns(h.max())),
            ]);
        }

        format!("{}\n{}", counters.render(), latency.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_bounds_bracket_every_value() {
        let mut probes: Vec<u64> = vec![0, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 123_456_789];
        for shift in 2..64 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift) - 1);
            probes.push((1u64 << shift) + 1);
        }
        probes.push(u64::MAX);
        for ns in probes {
            let idx = bucket_index(ns);
            assert!(idx < LATENCY_BUCKETS, "index {idx} for {ns}");
            assert!(bucket_lower(idx) <= ns, "lower({idx}) > {ns}");
            assert!(bucket_upper(idx) >= ns, "upper({idx}) < {ns}");
            // Log-scale guarantee: upper bound overshoots by ≤ 25 %.
            assert!(bucket_upper(idx) <= ns.saturating_add(ns / 4).saturating_add(3));
        }
        // Buckets tile the axis contiguously.
        for idx in 1..LATENCY_BUCKETS {
            assert_eq!(bucket_lower(idx), bucket_upper(idx - 1) + 1, "idx {idx}");
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), Duration::from_nanos(1));
        assert_eq!(s.max(), Duration::from_nanos(1000));
        // p50 of 1..=1000 is ~500; log buckets answer within 25 %.
        let p50 = s.p50().as_nanos() as u64;
        assert!((500..=640).contains(&p50), "p50 = {p50}");
        let p99 = s.p99().as_nanos() as u64;
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99() && s.p99() <= s.max());
        // Exact mean survives the bucketing (sum is kept exactly).
        assert_eq!(s.mean(), Duration::from_nanos(500));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.min(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
    }

    #[test]
    fn shard_fold_matches_direct_recording() {
        let direct = Recorder::new();
        let sharded = Recorder::new();
        let mut shard = TelemetryShard::new();
        for i in 0..500u64 {
            let latency = Duration::from_nanos(10 + i * 3);
            let tally = RelationTally::new(i % 7, i % 3, i % 2, i % 5);
            direct.record_query(latency, tally);
            shard.record_query(latency, tally);
        }
        sharded.absorb(&shard);
        assert_eq!(direct.snapshot(), sharded.snapshot());
        assert_eq!(sharded.queries(), 500);
    }

    #[test]
    fn concurrent_recording_totals_are_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let rec = Recorder::shared();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        rec.record_query(
                            Duration::from_nanos(t * 1000 + i),
                            RelationTally::new(1, 2, 3, 4),
                        );
                        if i % 100 == 0 {
                            rec.record_batch(Duration::from_micros(i));
                        }
                    }
                });
            }
        });
        let s = rec.snapshot();
        assert_eq!(s.queries, THREADS * PER_THREAD);
        assert_eq!(s.query_latency.count(), THREADS * PER_THREAD);
        assert_eq!(s.batches, THREADS * PER_THREAD / 100);
        assert_eq!(s.objects_estimated, THREADS * PER_THREAD * 10);
        assert_eq!(
            s.relations,
            RelationTally::new(
                THREADS * PER_THREAD,
                THREADS * PER_THREAD * 2,
                THREADS * PER_THREAD * 3,
                THREADS * PER_THREAD * 4,
            )
        );
        // Exact extremes survive concurrent recording.
        assert_eq!(s.query_latency.min(), Duration::from_nanos(0));
        assert_eq!(
            s.query_latency.max(),
            Duration::from_nanos((THREADS - 1) * 1000 + PER_THREAD - 1)
        );
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let rec = Recorder::new();
        rec.record_query(Duration::from_nanos(100), RelationTally::new(0, 1, 0, 0));
        rec.record_batch(Duration::from_micros(1));
        let before = rec.snapshot();
        for _ in 0..9 {
            rec.record_query(Duration::from_nanos(200), RelationTally::new(5, 0, 0, 2));
        }
        rec.record_batch(Duration::from_micros(2));
        rec.add_zero_hits(3);
        rec.add_mega_hits(1);
        let delta = rec.snapshot().delta_since(&before);
        assert_eq!(delta.queries, 9);
        assert_eq!(delta.batches, 1);
        assert_eq!(delta.zero_hits, 3);
        assert_eq!(delta.mega_hits, 1);
        assert_eq!(delta.relations, RelationTally::new(45, 0, 0, 18));
        assert_eq!(delta.query_latency.count(), 9);
        // The window's quantiles reflect only the window's samples.
        assert!(delta.query_latency.p50() >= Duration::from_nanos(193));
    }

    #[test]
    fn sweep_dispatches_count_and_diff() {
        let rec = Recorder::new();
        rec.record_sweep(Duration::from_micros(5));
        let before = rec.snapshot();
        assert_eq!(before.sweep_hits, 1);
        assert_eq!(before.tiling_latency.count(), 1);
        rec.record_sweep(Duration::from_micros(7));
        rec.record_sweep(Duration::from_micros(9));
        let delta = rec.snapshot().delta_since(&before);
        assert_eq!(delta.sweep_hits, 2);
        assert_eq!(delta.tiling_latency.count(), 2);
        // Sweep dispatches are not batches or queries.
        assert_eq!(delta.batches, 0);
        assert_eq!(delta.queries, 0);
    }

    #[test]
    fn resilience_counters_count_and_diff() {
        let rec = Recorder::new();
        rec.record_panic_caught();
        rec.record_batch_outcome(OutcomeLabel::Complete, Duration::from_micros(1));
        let before = rec.snapshot();
        assert_eq!(before.panics_caught, 1);
        assert_eq!(before.batch_complete_latency.count(), 1);
        rec.record_panic_caught();
        rec.record_deadline_exceeded();
        rec.record_degraded_sweep();
        rec.record_batch_outcome(OutcomeLabel::Degraded, Duration::from_micros(2));
        rec.record_batch_outcome(OutcomeLabel::Failed, Duration::from_micros(3));
        rec.record_batch_outcome(OutcomeLabel::Failed, Duration::from_micros(4));
        let delta = rec.snapshot().delta_since(&before);
        assert_eq!(delta.panics_caught, 1);
        assert_eq!(delta.deadline_exceeded, 1);
        assert_eq!(delta.degraded_sweeps, 1);
        assert_eq!(delta.batch_complete_latency.count(), 0);
        assert_eq!(delta.batch_degraded_latency.count(), 1);
        assert_eq!(delta.batch_failed_latency.count(), 2);
        // Outcome histograms are extra labels, not extra batches.
        assert_eq!(delta.batches, 0);
    }

    #[test]
    fn epoch_gauge_keeps_the_maximum_and_survives_deltas() {
        let rec = Recorder::new();
        assert_eq!(rec.snapshot().last_epoch, 0, "no epoch-tagged batch yet");
        rec.record_epoch(3);
        let before = rec.snapshot();
        assert_eq!(before.last_epoch, 3);
        // A straggler batch from an older epoch cannot roll it back.
        rec.record_epoch(2);
        assert_eq!(rec.snapshot().last_epoch, 3);
        rec.record_epoch(5);
        let delta = rec.snapshot().delta_since(&before);
        // Gauge semantics: the window reports the latest value, not 5 − 3.
        assert_eq!(delta.last_epoch, 5);
    }

    #[test]
    fn render_mentions_every_series() {
        let rec = Recorder::new();
        rec.record_query(Duration::from_micros(2), RelationTally::new(1, 1, 1, 1));
        rec.record_batch(Duration::from_millis(3));
        let out = rec.snapshot().render();
        for needle in [
            "queries",
            "batches",
            "p99",
            "query",
            "batch",
            "mega-hit",
            "sweep",
            "tiling",
            "panics caught",
            "deadlines exceeded",
            "degraded sweeps",
            "batch/complete",
            "batch/degraded",
            "batch/failed",
            "last epoch",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
    }

    proptest! {
        /// Quantiles are monotone (p50 ≤ p95 ≤ p99 ≤ max) and bracket the
        /// recorded samples: every readout lies in [min sample, max
        /// sample], and max() is the exact largest sample.
        #[test]
        fn quantiles_monotone_and_bracketing(
            samples in prop::collection::vec(0u64..2_000_000_000, 1..300),
        ) {
            let h = LatencyHistogram::new();
            for &ns in &samples {
                h.record_ns(ns);
            }
            let s = h.snapshot();
            let lo = Duration::from_nanos(*samples.iter().min().unwrap());
            let hi = Duration::from_nanos(*samples.iter().max().unwrap());
            let (p50, p95, p99, max) = (s.p50(), s.p95(), s.p99(), s.max());
            prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
            prop_assert_eq!(max, hi);
            prop_assert_eq!(s.min(), lo);
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let v = s.quantile(q);
                prop_assert!(v >= lo && v <= hi, "q={} v={:?} range=[{:?},{:?}]", q, v, lo, hi);
            }
            prop_assert_eq!(s.count(), samples.len() as u64);
        }
    }
}
