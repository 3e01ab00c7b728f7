//! Per-tile loop vs the tiling sweep evaluator, across the paper's
//! Q₂…Q₂₀ query-set family and three grid resolutions.
//!
//! Both paths run the same frozen S-EulerApprox histogram through the
//! batch engine on one thread: the *loop* path submits the tiling as a
//! materialized query slice (so the engine answers tile by tile with
//! four independent `signed_sum` probes each), the *sweep* path submits
//! the `Tiling` itself (so the engine dispatches
//! `Level2Estimator::estimate_tiling`, one row-major pass that reuses
//! each materialized corner strip for the tile row above and below).
//! The two are asserted bit-identical before any timing starts.
//!
//! Besides the `timing` samples, the bench takes its own
//! minimum-of-N wall-clock measurement per configuration and writes the
//! machine-readable summary `results/BENCH_browse.json` (quick mode:
//! `results/BENCH_browse.quick.json`, a subset with overlapping ids so
//! `bench_diff` can compare speedup ratios across the two files).
//!
//! Set `EULER_BENCH_QUICK=1` for the seconds-long CI smoke run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use euler_bench::timing::Group;
use euler_bench::write_bench_json;
use euler_core::{EulerHistogram, SEulerApprox};
use euler_datagen::{adl_like, AdlConfig};
use euler_engine::{EstimatorEngine, QueryBatch};
use euler_grid::{DataSpace, Grid, GridRect, QuerySet};

struct Entry {
    id: String,
    tiles: usize,
    per_tile_ns: u64,
    sweep_ns: u64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.per_tile_ns as f64 / self.sweep_ns.max(1) as f64
    }
}

/// One batch of individually timed calls: runs `f` `calls` times,
/// timing every call on its own, and returns the fastest. A single call
/// (a few µs to a ms) is far more likely to fit between interruptions
/// on a shared core than any longer averaging window, so the per-call
/// minimum converges on the undisturbed cost even under bursty noise.
fn best_call_ns(f: &mut dyn FnMut() -> i64, calls: u64) -> u64 {
    let mut best = u64::MAX;
    let mut sink = 0i64;
    for _ in 0..calls {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    black_box(sink);
    best
}

/// Minimum per-run nanoseconds for the two paths, measured in
/// *interleaved* batches (loop, sweep, loop, sweep, …) so slow drift —
/// CPU frequency, a noisy neighbour — hits both paths alike and cancels
/// out of the speedup ratio.
fn measure_pair(
    mut loop_f: impl FnMut() -> i64,
    mut sweep_f: impl FnMut() -> i64,
    samples: usize,
) -> (u64, u64) {
    // ~1 ms of calls per batch, at least 8 so the minimum has a field
    // to pick from even for the slowest configurations.
    let calibrate = |f: &mut dyn FnMut() -> i64| {
        let t = Instant::now();
        black_box(f());
        let once = t.elapsed().as_nanos().max(1) as u64;
        (1_000_000 / once).clamp(8, 512)
    };
    let calls_l = calibrate(&mut loop_f);
    let calls_s = calibrate(&mut sweep_f);
    let (mut best_l, mut best_s) = (u64::MAX, u64::MAX);
    for _ in 0..samples {
        best_l = best_l.min(best_call_ns(&mut loop_f, calls_l));
        best_s = best_s.min(best_call_ns(&mut sweep_f, calls_s));
    }
    (best_l, best_s)
}

fn main() {
    let quick = std::env::var_os("EULER_BENCH_QUICK").is_some();
    let d = adl_like(&AdlConfig {
        count: if quick { 1_000 } else { 10_000 },
        ..AdlConfig::default()
    });

    // The paper grid carries the full Q₂…Q₂₀ family; a half and a double
    // resolution probe how the win scales with grid size. Quick mode
    // keeps a subset whose ids overlap the full run, so bench_diff can
    // match entries across the two files.
    let grids: &[(usize, usize)] = if quick {
        &[(360, 180)]
    } else {
        &[(180, 90), (360, 180), (720, 360)]
    };
    let samples = if quick { 25 } else { 60 };

    let mut entries: Vec<Entry> = Vec::new();
    let mut group = Group::new("browse_sweep");
    for &(nx, ny) in grids {
        let grid = Grid::new(DataSpace::paper_world(), nx, ny).unwrap();
        let objects = d.snap(&grid);
        let est = Arc::new(SEulerApprox::new(
            EulerHistogram::build(grid, &objects).freeze(),
        ));
        let engine = EstimatorEngine::new(est).with_threads(1);

        let sets: Vec<QuerySet> = QuerySet::paper_sets(&grid)
            .into_iter()
            .filter(|qs| {
                let main_grid = (nx, ny) == (360, 180);
                let keep: &[usize] = match (quick, main_grid) {
                    // Quick keeps the stable mid/dense points; Q20's 162
                    // tiles are too few to time repeatably in CI.
                    (true, _) => &[10, 4],
                    (false, true) => &[20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2],
                    (false, false) => &[10, 5, 2],
                };
                keep.contains(&qs.tile_size())
            })
            .collect();

        for qs in sets {
            let tiling = *qs.tiling();
            let queries: Vec<GridRect> = tiling.iter().map(|(_, t)| t).collect();
            let loop_batch = QueryBatch::new(&queries);
            let sweep_batch = QueryBatch::from(&tiling);
            let id = format!("{nx}x{ny}/{}", qs.label());

            // The sweep is an evaluation-order optimization, nothing more:
            // refuse to time two paths that disagree.
            assert_eq!(
                engine.run_batch(&sweep_batch).counts,
                engine.run_batch(&loop_batch).counts,
                "sweep diverged from the per-tile loop on {id}"
            );

            let (per_tile_ns, sweep_ns) = measure_pair(
                || engine.run_batch(&loop_batch).report.total.disjoint,
                || engine.run_batch(&sweep_batch).report.total.disjoint,
                samples,
            );
            entries.push(Entry {
                id: id.clone(),
                tiles: tiling.len(),
                per_tile_ns,
                sweep_ns,
            });

            group.throughput(tiling.len() as u64);
            group.bench(format_args!("{id}-loop/{}", tiling.len()), || {
                engine.run_batch(&loop_batch)
            });
            group.bench(format_args!("{id}-sweep/{}", tiling.len()), || {
                engine.run_batch(&sweep_batch)
            });
        }
    }
    group.finish();

    println!(
        "{:<16} {:>8} {:>14} {:>14} {:>9}",
        "set", "tiles", "per-tile", "sweep", "speedup"
    );
    for e in &entries {
        println!(
            "{:<16} {:>8} {:>11} ns {:>11} ns {:>8.2}x",
            e.id,
            e.tiles,
            e.per_tile_ns,
            e.sweep_ns,
            e.speedup()
        );
    }

    write_json(&entries, quick);
}

/// Hand-rolled JSON (the workspace has no JSON serializer): one entry
/// object per line, the exact shape `bench_diff` string-parses.
fn write_json(entries: &[Entry], quick: bool) {
    let mut body = String::from("{\n  \"bench\": \"browse_sweep\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!(
            "    {{\"id\":\"{}\",\"tiles\":{},\"per_tile_ns\":{},\"sweep_ns\":{},\"speedup\":{:.3}}}{sep}\n",
            e.id, e.tiles, e.per_tile_ns, e.sweep_ns,
            e.speedup()
        ));
    }
    body.push_str("  ]\n}\n");
    write_bench_json("browse", quick, &body);
}
