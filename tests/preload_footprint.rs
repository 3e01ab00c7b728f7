//! Boot memory of the `geobrowse serve` preload: streaming a CSV into a
//! served histogram must peak at one grid-sized array — the bucket
//! buffer that becomes the dense prefix cube in place — the same as an
//! empty service, whatever the row count. Holding the rows (a `Vec` of
//! rects, a copy of it, a `Vec` of snapped rects) would scale with N, and
//! a bucket array beside the cube would double the peak.
//!
//! A counting global allocator tracks the bytes allocated now and their
//! high-water mark; this file holds exactly one test so no other test's
//! allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use spatial_histograms::cube::PrefixSum2D;
use spatial_histograms::datagen::io::load_csv_histogram;
use spatial_histograms::datagen::{adl_like, AdlConfig};
use spatial_histograms::prelude::*;

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let now = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    PEAK_BYTES.fetch_max(now, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes allocated above the current level while `f` runs, with
/// whatever `f` returns still alive at the end.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    let out = f();
    (out, PEAK_BYTES.load(Relaxed) - before)
}

#[test]
fn a_streamed_preload_peaks_like_an_empty_service() {
    /// The ADL-like set at 1/40 of the paper's size.
    const ROWS: usize = 58_368;
    const SLACK: isize = 256 << 10;
    let grid = Grid::new(DataSpace::paper_world(), 360, 180).unwrap();
    let (ew, eh) = grid.euler_dims();
    let one_cube = PrefixSum2D::projected_bytes(ew, eh) as isize;
    // 4-byte cells: 720-cell stride (719 buckets + the guard) × 360 rows.
    assert_eq!(one_cube, 720 * 360 * 4);
    assert_eq!(one_cube, 1_036_800);
    let mib = |b: isize| b as f64 / (1 << 20) as f64;

    let (empty, empty_peak) = peak_during(|| DynamicGeoBrowsingService::new(grid));
    drop(empty);
    assert!(
        empty_peak <= one_cube + SLACK,
        "an empty service peaked at {:.2} MiB; one cube is {:.2} MiB",
        mib(empty_peak),
        mib(one_cube)
    );

    for rows in [ROWS, 4 * ROWS] {
        let path = std::env::temp_dir().join(format!(
            "preload-footprint-{rows}-{}.csv",
            std::process::id()
        ));
        adl_like(&AdlConfig {
            count: rows,
            ..AdlConfig::default()
        })
        .save_csv(&path)
        .unwrap();

        let (session, peak) = peak_during(|| {
            DynamicGeoBrowsingService::preloaded(load_csv_histogram(&path, grid).unwrap())
        });
        std::fs::remove_file(&path).ok();
        assert_eq!(session.len(), rows as u64);
        assert_eq!(session.version(), rows as u64);
        assert!(
            peak <= one_cube + SLACK,
            "preloading {rows} rows peaked at {:.2} MiB; one cube is {:.2} MiB",
            mib(peak),
            mib(one_cube)
        );
    }
}
