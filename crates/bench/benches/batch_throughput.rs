//! Batch-engine throughput across thread counts (the parallel fan-out of
//! `euler-engine`), on the paper's Q₂…Q₂₀ query-set family.
//!
//! The measured estimator is the exact scan — O(n) per tile — because
//! that's the regime where fanning a batch across workers pays: the
//! Euler-family estimators answer a tile in tens of nanoseconds
//! (see `query_latency.rs`), so for them the spawn cost of a batch
//! dominates. The acceptance shape is that ≥4 threads beats the
//! sequential (1-thread) loop on the Q₁₀ tiling.
//!
//! Every configuration runs three ways: bare; with a telemetry
//! [`Recorder`] attached (the `-recorded` benchmark ids); and with a
//! far-future deadline armed (`-deadline`). The recorded variant is the
//! overhead budget check for the always-on telemetry layer, the deadline
//! variant for the per-query deadline check on the fault-free hot path —
//! each must stay
//! within a few percent of bare (≤ 2 % for `-deadline`; the numbers live
//! in EXPERIMENTS.md).
//!
//! Set `EULER_BENCH_QUICK=1` for a seconds-long smoke run (small dataset,
//! one query set, two thread counts) — used by CI.

use std::time::Duration;

use euler_baselines::NaiveScan;
use euler_bench::engine;
use euler_bench::timing::Group;
use euler_datagen::{adl_like, AdlConfig};
use euler_engine::{BatchOptions, QueryBatch};
use euler_grid::{Grid, QuerySet};
use euler_metrics::Recorder;

fn main() {
    let quick = std::env::var_os("EULER_BENCH_QUICK").is_some();
    let grid = Grid::paper_default();
    let d = adl_like(&AdlConfig {
        count: if quick { 500 } else { 8_000 },
        ..AdlConfig::default()
    });
    let objects = d.snap(&grid);
    let eng = engine(NaiveScan::new(objects));

    let mut group = Group::new("batch_throughput");
    // A spread of the paper's eleven sets: largest tiles, the acceptance
    // Q10 point, and the densest sets. Quick mode keeps only Q10.
    let tile_sizes: &[usize] = if quick { &[10] } else { &[20, 10, 5, 2] };
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    for qs in QuerySet::paper_sets(&grid)
        .into_iter()
        .filter(|qs| tile_sizes.contains(&qs.tile_size()))
    {
        let batch = QueryBatch::from(&qs);
        group.throughput(batch.len() as u64);
        for &threads in thread_counts {
            let bare = eng.clone().with_threads(threads);
            group.bench(format_args!("{}/{threads}", qs.label()), || {
                bare.run_batch(&batch)
            });
            let recorded = eng
                .clone()
                .with_threads(threads)
                .with_recorder(Recorder::shared());
            group.bench(format_args!("{}-recorded/{threads}", qs.label()), || {
                recorded.run_batch(&batch)
            });
            // A deadline armed but never tripping. The exact scan has no
            // sweep, so this is the per-tile loop reading the deadline
            // clock before every query: the price of that check on an
            // otherwise clean run. (A sweep-capable estimator checks the
            // deadline once, then sweeps.)
            let opts = BatchOptions::new().deadline(Duration::from_secs(3600));
            group.bench(format_args!("{}-deadline/{threads}", qs.label()), || {
                bare.run_batch_with(&batch, &opts)
            });
        }
    }
    group.finish();
}
