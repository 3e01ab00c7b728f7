//! Steady-state memory of a live histogram on the paper grid: the frozen
//! prefix cube is its only grid-sized array. A preload freezes its bucket
//! buffer in place, and a fold builds the next cube from the current one
//! plus the delta in one scratch array, so no bucket array is kept
//! between folds.
//!
//! A counting global allocator tracks the bytes allocated now and their
//! high-water mark; this file holds exactly one test so no other test's
//! allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use spatial_histograms::core::snapshot::DEFAULT_REFREEZE_EVERY;
use spatial_histograms::cube::PrefixSum2D;
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

/// A deterministic object stream: rects of 0.5–8.5° at scattered spots.
fn object(snapper: &Snapper, i: usize) -> SnappedRect {
    let x = (i * 37 % 340) as f64;
    let y = (i * 53 % 170) as f64;
    let side = 0.5 + (i % 9) as f64;
    snapper.snap(&Rect::new(x, y, x + side, y + side).unwrap())
}

#[test]
fn a_live_histogram_holds_one_cube_between_folds() {
    const SLACK: isize = 256 << 10;
    const PRELOAD: usize = 20_000;
    let grid = Grid::new(DataSpace::paper_world(), 360, 180).unwrap();
    let snapper = Snapper::new(grid);
    let (ew, eh) = grid.euler_dims();
    let one_cube = PrefixSum2D::projected_bytes(ew, eh) as isize;
    let mib = |b: isize| b as f64 / (1 << 20) as f64;

    let base = LIVE_BYTES.load(Relaxed);
    let live = LiveEulerHistogram::preloaded(EulerHistogram::build(
        grid,
        (0..PRELOAD).map(|i| object(&snapper, i)),
    ));
    let held = LIVE_BYTES.load(Relaxed) - base;
    assert!(
        held <= one_cube + SLACK,
        "after the preload a live histogram holds {:.2} MiB; one cube is {:.2} MiB",
        mib(held),
        mib(one_cube)
    );

    // More than four fold periods of inserts and removes, then a
    // checkpoint, with no snapshot pinned across any of them.
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    let writes = 4 * DEFAULT_REFREEZE_EVERY + 100;
    for i in 0..writes {
        if i % 4 == 3 {
            live.remove(&object(&snapper, i)).unwrap();
        } else {
            live.insert(&object(&snapper, PRELOAD + i));
        }
    }
    assert!(live.epoch() >= 5, "{writes} writes must cross four folds");
    let image = live.checkpoint_image();
    assert_eq!(image.version, (PRELOAD + writes) as u64);
    drop(image);
    let peak = PEAK_BYTES.load(Relaxed) - base;
    assert!(
        peak <= 3 * one_cube,
        "folding peaked at {:.2} MiB; three cubes are {:.2} MiB",
        mib(peak),
        mib(3 * one_cube)
    );

    let snap = live.pin();
    assert_eq!(snap.delta_len(), 0, "a checkpoint folds the delta");
    drop(snap);
    let held = LIVE_BYTES.load(Relaxed) - base;
    assert!(
        held <= one_cube + SLACK,
        "after the folds and a checkpoint a live histogram holds {:.2} MiB; \
         one cube is {:.2} MiB",
        mib(held),
        mib(one_cube)
    );
}
