//! Memory footprint of the live histogram's delta: a full delta (one op
//! short of the automatic refreeze) on the paper grid must stay a list
//! of ops, not a stack of per-run bucket arrays.
//!
//! A counting global allocator tracks the bytes still allocated; this
//! file holds exactly one test so no other test's allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use spatial_histograms::core::snapshot::DEFAULT_REFREEZE_EVERY;
use spatial_histograms::prelude::*;

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_full_delta_on_the_paper_grid_stays_small() {
    const LIMIT: isize = 16 << 20;
    let grid = Grid::new(DataSpace::paper_world(), 360, 180).unwrap();
    let snapper = Snapper::new(grid);
    let before = LIVE_BYTES.load(Relaxed);
    let live = LiveEulerHistogram::new(grid);
    let inserts = DEFAULT_REFREEZE_EVERY - 1;
    for i in 0..inserts {
        let x = (i * 37 % 340) as f64;
        let y = (i * 53 % 170) as f64;
        let side = 0.5 + (i % 9) as f64;
        live.insert(&snapper.snap(&Rect::new(x, y, x + side, y + side).unwrap()));
    }
    let snap = live.pin();
    assert_eq!(snap.delta_len(), inserts);
    assert_eq!(snap.epoch(), 1, "the delta must not have been refrozen");
    let held = LIVE_BYTES.load(Relaxed) - before;
    assert!(
        held < LIMIT,
        "{inserts} delta ops hold {:.1} MB (limit {} MB)",
        held as f64 / (1 << 20) as f64,
        LIMIT >> 20
    );
}
