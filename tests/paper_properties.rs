//! The paper's qualitative claims, pinned as executable tests at reduced
//! scale: each test names the section/figure whose behaviour it locks in.

use spatial_histograms::core::storage;
use spatial_histograms::core::{EulerHistogram, Level2Estimator};
use spatial_histograms::datagen::exact::ground_truth;
use spatial_histograms::datagen::{paper_dataset, sp_skew, sz_skew, SpSkewConfig, SzSkewConfig};
use spatial_histograms::metrics::ErrorAccumulator;
use spatial_histograms::prelude::*;

fn are_of<E: Level2Estimator>(
    est: &E,
    objects: &[SnappedRect],
    grid: &Grid,
    tile: usize,
    pick: impl Fn(&RelationCounts) -> i64,
) -> f64 {
    let qs = QuerySet::q_n(grid, tile).unwrap();
    let gt = ground_truth(objects, qs.tiling());
    let mut acc = ErrorAccumulator::default();
    for (q, exact) in gt.iter_with(qs.tiling()) {
        acc.push(pick(exact) as f64, pick(&est.estimate(&q).clamped()) as f64);
    }
    acc.are()
}

/// §6.2 / Figure 14(a): squares cannot cross square queries, so the
/// sz_skew overlap estimate is *exact* for every query set.
#[test]
fn sz_skew_overlap_error_is_exactly_zero() {
    let grid = Grid::paper_default();
    let d = sz_skew(&SzSkewConfig {
        count: 20_000,
        ..SzSkewConfig::default()
    });
    let objects = d.snap(&grid);
    let est = SEulerApprox::new(EulerHistogram::build(grid, &objects).freeze());
    for tile in [20, 10, 4, 2] {
        let are = are_of(&est, &objects, &grid, tile, |c| c.overlaps);
        assert_eq!(are, 0.0, "Q{tile}");
    }
}

/// §6.2 / Figure 14(a): sp_skew objects are 3.6×1.8, so crossovers are
/// impossible for tiles of 4×4 and larger — the overlap estimate is exact
/// there and degrades only at Q3/Q2.
#[test]
fn sp_skew_crossover_threshold_at_4x4() {
    let grid = Grid::paper_default();
    let d = sp_skew(&SpSkewConfig {
        count: 20_000,
        ..SpSkewConfig::default()
    });
    let objects = d.snap(&grid);
    let est = SEulerApprox::new(EulerHistogram::build(grid, &objects).freeze());
    for tile in [20, 10, 5, 4] {
        assert_eq!(are_of(&est, &objects, &grid, tile, |c| c.overlaps), 0.0);
    }
    let q3 = are_of(&est, &objects, &grid, 3, |c| c.overlaps);
    assert!(q3 > 0.0, "crossovers must appear at 3x3 tiles");
    // And N_cs stays exact at every size for this small-object dataset.
    for tile in [20, 10, 4, 2] {
        assert_eq!(are_of(&est, &objects, &grid, tile, |c| c.contains), 0.0);
    }
}

/// §5.3 / Figure 10: the loophole effect — an object containing the query
/// contributes 0 to the outside sum (its exterior intersection is an
/// annulus with Euler characteristic 2 − k = 0).
#[test]
fn loophole_effect_is_real() {
    let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
    let snapper = Snapper::new(grid);
    let big = snapper.snap(&Rect::new(20.0, 20.0, 340.0, 160.0).unwrap());
    let hist = EulerHistogram::build(grid, [big]).freeze();
    let q = GridRect::unchecked(10, 5, 20, 10);
    assert_eq!(hist.intersect_count(&q), 1);
    assert_eq!(
        hist.outside_sum(&q),
        0,
        "containing object invisible outside"
    );
    // S-EulerApprox consequently misattributes it to N_cs (§6.2)...
    let s = SEulerApprox::new(hist.clone());
    assert_eq!(s.estimate(&q).contains, 1);
    assert_eq!(s.estimate(&q).contained, 0);
    // ...while EulerApprox recovers it through Region A (with the known
    // O1 double-count for an isolated containing object).
    let e = EulerApprox::new(hist);
    assert!(e.estimate(&q).contained >= 1);
}

/// §6.3–6.4: on the large-object dataset, EulerApprox improves the
/// contains estimate over S-EulerApprox, and M-EulerApprox improves it
/// further, at mid-size queries.
#[test]
fn estimator_hierarchy_on_sz_skew() {
    let grid = Grid::paper_default();
    let d = sz_skew(&SzSkewConfig {
        count: 20_000,
        ..SzSkewConfig::default()
    });
    let objects = d.snap(&grid);
    let hist = EulerHistogram::build(grid, &objects).freeze();
    let s = SEulerApprox::new(hist.clone());
    let e = EulerApprox::new(hist);
    let m = MEulerApprox::build(
        grid,
        &objects,
        &MEulerApprox::boundaries_from_sides(&[3, 10]),
    );
    for tile in [9, 6, 5] {
        let s_are = are_of(&s, &objects, &grid, tile, |c| c.contains);
        let e_are = are_of(&e, &objects, &grid, tile, |c| c.contains);
        let m_are = are_of(&m, &objects, &grid, tile, |c| c.contains);
        assert!(e_are < s_are, "Q{tile}: Euler {e_are} < S-Euler {s_are}");
        assert!(m_are < e_are, "Q{tile}: M-Euler {m_are} < Euler {e_are}");
    }
}

/// §5.4: queries whose area matches a group boundary dispatch every group
/// to a provably sound branch, so M-EulerApprox is exact there (for
/// crossover-free datasets like squares).
#[test]
fn m_euler_exact_at_boundary_aligned_queries() {
    let grid = Grid::paper_default();
    let d = sz_skew(&SzSkewConfig {
        count: 20_000,
        ..SzSkewConfig::default()
    });
    let objects = d.snap(&grid);
    let m = MEulerApprox::build(
        grid,
        &objects,
        &MEulerApprox::boundaries_from_sides(&[3, 10]),
    );
    for tile in [3, 10] {
        assert_eq!(
            are_of(&m, &objects, &grid, tile, |c| c.contains),
            0.0,
            "Q{tile}"
        );
        assert_eq!(
            are_of(&m, &objects, &grid, tile, |c| c.contained),
            0.0,
            "Q{tile}"
        );
    }
}

/// Theorem 3.1 / §3: exact `contains` storage is quadratic in the cell
/// count and ≈4 GB for the paper's grid; the Euler histogram is linear.
#[test]
fn storage_bounds_match_the_paper() {
    let exact = storage::exact_contains_buckets_all_types(&[360, 180]);
    let bytes = storage::buckets_to_bytes(exact, 1);
    assert!((4.0e9..4.5e9).contains(&(bytes as f64)), "paper's ~4GB");
    let euler = storage::euler_histogram_buckets(&[360, 180]);
    assert_eq!(euler, 719 * 359);
    // Quadratic vs linear growth: doubling the grid multiplies the exact
    // bound by ~16 and the Euler bound by ~4.
    let e1 = storage::exact_contains_buckets(&[360, 180]) as f64;
    let e2 = storage::exact_contains_buckets(&[720, 360]) as f64;
    assert!((15.0..17.0).contains(&(e2 / e1)));
    let h1 = storage::euler_histogram_buckets(&[360, 180]) as f64;
    let h2 = storage::euler_histogram_buckets(&[720, 360]) as f64;
    assert!((3.9..4.1).contains(&(h2 / h1)));
}

/// §6.5: the whole Q2 sweep (16,200 constant-time queries) completes well
/// inside the paper's 100 ms browsing budget even in a debug-friendly
/// integration test.
#[test]
fn q2_sweep_is_fast() {
    let grid = Grid::paper_default();
    let d = paper_dataset("adl", 100).unwrap();
    let objects = d.snap(&grid);
    let est = SEulerApprox::new(EulerHistogram::build(grid, &objects).freeze());
    let qs = QuerySet::q_n(&grid, 2).unwrap();
    let start = std::time::Instant::now();
    let mut sink = 0i64;
    for q in qs.iter() {
        sink = sink.wrapping_add(est.estimate(&q).contains);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    // Generous bound: debug builds are ~50x slower than release; the
    // release number lands in the low milliseconds.
    assert!(
        elapsed.as_millis() < 2_000,
        "Q2 sweep took {elapsed:?} for {} queries",
        qs.len()
    );
}
