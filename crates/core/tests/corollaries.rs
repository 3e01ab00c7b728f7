//! Corollaries 4.1 and 4.2 on adversarial snapped rectangles, asserted
//! directly on the Euler histogram's bucket algebra.
//!
//! Every single-object histogram is a live instance of the corollaries:
//! the signed sum over the object's whole footprint is its Euler
//! characteristic (`χ = 1`, Corollary 4.1), and the outside sum
//! `n'_ei = total − closed_sum` is the χ of `object ∩ exterior(query)` —
//! `0` for a containing object (the annulus has `k = 2` exterior faces,
//! Corollary 4.2), `2` for a crossover (two components, Figure 9(b)).
//! The adversarial inputs are the §4.2 snap-rule extremes: zero-width /
//! zero-height objects on grid lines and rectangles flush with the grid
//! boundary.

use euler_core::formula::{euler_characteristic, exterior_faces_of_connected, CellMask};
use euler_core::{s_euler_counts, EulerHistogram, RelationCounts};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, GridRect, Snapper};

fn grid(nx: usize, ny: usize) -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
        nx,
        ny,
    )
    .unwrap()
}

/// Builds a one-object histogram from a raw rect (snapped per §4.2).
fn single(g: &Grid, r: Rect) -> euler_core::FrozenEulerHistogram {
    let o = Snapper::new(*g).snap(&r);
    EulerHistogram::build(*g, [o]).freeze()
}

fn q(x0: usize, y0: usize, x1: usize, y1: usize) -> GridRect {
    GridRect::unchecked(x0, y0, x1, y1)
}

/// A labelled raw rect plus the `(cx0, cy0, cx1, cy1)` cell span it must
/// occupy after snapping.
type AdversarialObject = (&'static str, Rect, (usize, usize, usize, usize));

/// The §4.2 adversarial menagerie on an 8×6 grid: degenerate and
/// boundary-flush rawrects, each with the cell span it must occupy after
/// snapping.
fn adversarial_objects() -> Vec<AdversarialObject> {
    vec![
        (
            "zero-area point on an interior grid vertex",
            Rect::new(3.0, 2.0, 3.0, 2.0).unwrap(),
            (2, 1, 3, 2), // inflates across the vertex into 4 cells
        ),
        (
            "zero-area point at the grid origin",
            Rect::new(0.0, 0.0, 0.0, 0.0).unwrap(),
            (0, 0, 0, 0), // clamped strictly inside the corner cell
        ),
        (
            "zero-height segment lying on a grid line",
            Rect::new(1.5, 3.0, 5.5, 3.0).unwrap(),
            (1, 2, 5, 3), // straddles the line: two cell rows
        ),
        (
            "zero-width segment on the right boundary",
            Rect::new(8.0, 1.5, 8.0, 4.5).unwrap(),
            (7, 1, 7, 4), // pushed inside the last column
        ),
        (
            "rectangle flush with the whole grid boundary",
            Rect::new(0.0, 0.0, 8.0, 6.0).unwrap(),
            (0, 0, 7, 5), // shrunk strictly inside: every cell
        ),
        (
            "cell-aligned rectangle strictly inside",
            Rect::new(2.0, 1.0, 6.0, 4.0).unwrap(),
            (2, 1, 5, 3), // shrink rule pulls all four edges inward
        ),
    ]
}

/// Corollary 4.1: every snapped object's footprint is simply connected,
/// so its total signed bucket sum — and hence the full-space inside sum —
/// is exactly 1, no matter how degenerate the raw rect was.
#[test]
fn corollary_4_1_unit_characteristic_per_object() {
    let g = grid(8, 6);
    for (label, raw, (cx0, cy0, cx1, cy1)) in adversarial_objects() {
        let h = single(&g, raw);
        assert_eq!(h.total(), 1, "{label}: total signed sum");
        assert_eq!(h.intersect_count(&g.full()), 1, "{label}: full-space n_ii");
        // The same χ = 1 on the object's cell span, via the mask algebra.
        let mut m = CellMask::new(8, 6);
        m.fill_rect(cx0, cy0, cx1, cy1);
        assert_eq!(euler_characteristic(&m), 1, "{label}: mask χ");
        // And the snapped span is the one the menagerie predicts.
        let o = Snapper::new(g).snap(&raw);
        assert_eq!(
            (o.cx0(), o.cy0(), o.cx1(), o.cy1()),
            (cx0, cy0, cx1, cy1),
            "{label}: snapped cell span"
        );
    }
}

/// The outside sum `n'_ei` is the Euler characteristic of
/// `object ∩ exterior(query)`: 1 for disjoint, 0 for contained, 1 for a
/// plain overlap — checked for every adversarial object against a
/// brute-force mask of the object's cells outside the query.
#[test]
fn outside_sum_is_chi_of_object_minus_query() {
    let g = grid(8, 6);
    let queries = [
        q(0, 0, 8, 6),
        q(0, 0, 1, 1),
        q(2, 1, 6, 4),
        q(1, 2, 6, 3),
        q(7, 0, 8, 6),
        q(3, 3, 5, 5),
    ];
    for (label, raw, _) in adversarial_objects() {
        let o = Snapper::new(g).snap(&raw);
        let h = single(&g, raw);
        for query in &queries {
            // Mask of cells whose interior the object occupies outside
            // the query — χ of that region is what the bucket algebra
            // must report, *except* when the object strictly contains
            // the query (the loophole: the hole is invisible to a mask
            // built from cells the object occupies).
            if o.contains_query(query) {
                continue;
            }
            let mut m = CellMask::new(8, 6);
            for cy in o.cy0()..=o.cy1() {
                for cx in o.cx0()..=o.cx1() {
                    let in_q = cx >= query.x0 && cx < query.x1 && cy >= query.y0 && cy < query.y1;
                    if !in_q {
                        m.set(cx, cy, true);
                    }
                }
            }
            assert_eq!(
                h.outside_sum(query),
                euler_characteristic(&m),
                "{label} vs {query}: n'_ei = χ(object ∖ query)"
            );
        }
    }
}

/// Corollary 4.2, the loophole: an object strictly containing the query
/// leaves an annulus in the exterior — `k = 2` exterior faces, so
/// `χ = 2 − k = 0` and the object vanishes from `n'_ei`. S-EulerApprox
/// therefore misfiles it as `contains` instead of `contained`.
#[test]
fn corollary_4_2_containing_object_is_the_loophole() {
    let g = grid(8, 6);
    // Boundary-flush object covering the whole grid; strictly interior query.
    let raw = Rect::new(0.0, 0.0, 8.0, 6.0).unwrap();
    let h = single(&g, raw);
    let query = q(3, 2, 5, 4);
    assert_eq!(h.intersect_count(&query), 1);
    assert_eq!(h.outside_sum(&query), 0, "annulus χ = 2 − k = 0");
    // The same k = 2 via the mask algebra on the annulus region.
    let mut annulus = CellMask::new(8, 6);
    annulus.fill_rect(0, 0, 7, 5);
    for cy in 2..4 {
        for cx in 3..5 {
            annulus.set(cx, cy, false);
        }
    }
    assert_eq!(euler_characteristic(&annulus), 0);
    assert_eq!(exterior_faces_of_connected(&annulus), 2);
    // S-EulerApprox misattributes N_cd to N_cs — the documented loophole.
    assert_eq!(s_euler_counts(&h, &query), RelationCounts::new(0, 1, 0, 0));
}

/// Figure 9(b): a crossover object splits into two components outside the
/// query, so it contributes 2 to `n'_ei` — and S-EulerApprox books a
/// negative `contains` for it.
#[test]
fn crossover_contributes_two_to_the_outside_sum() {
    let g = grid(8, 6);
    // Horizontal bar crossing a tall query; flush with both x boundaries
    // (adversarial: the snap rule pulls it inside) and sitting on the
    // y = 3 grid line (zero height before snapping).
    let raw = Rect::new(0.0, 3.0, 8.0, 3.0).unwrap();
    let o = Snapper::new(g).snap(&raw);
    let query = q(3, 1, 5, 5);
    assert!(o.crosses(&query), "bar must be a crossover for the query");
    let h = single(&g, raw);
    assert_eq!(h.outside_sum(&query), 2, "two components outside");
    // Mask cross-check: the bar minus the query is two disjoint stubs.
    let mut m = CellMask::new(8, 6);
    for cx in (0..3).chain(5..8) {
        m.set(cx, 2, true);
        m.set(cx, 3, true);
    }
    assert_eq!(euler_characteristic(&m), 2);
    assert_eq!(
        s_euler_counts(&h, &query),
        RelationCounts::new(0, -1, 0, 2),
        "Figure 9(b): each crossover inflates n_ei by one"
    );
}

/// Additivity: bucket sums are linear in the dataset, so the adversarial
/// menagerie all at once must give `total = N` and per-query outside sums
/// equal to the sum of the single-object χ values.
#[test]
fn bucket_sums_are_additive_over_adversarial_objects() {
    let g = grid(8, 6);
    let snapper = Snapper::new(g);
    let objects: Vec<_> = adversarial_objects()
        .iter()
        .map(|(_, r, _)| snapper.snap(r))
        .collect();
    let all = EulerHistogram::build(g, &objects).freeze();
    assert_eq!(all.total(), objects.len() as i64);
    for query in [q(0, 0, 1, 1), q(2, 1, 6, 4), q(1, 1, 7, 5), g.full()] {
        let singles: i64 = adversarial_objects()
            .iter()
            .map(|(_, r, _)| single(&g, *r).outside_sum(&query))
            .sum();
        assert_eq!(
            all.outside_sum(&query),
            singles,
            "additivity of n'_ei on {query}"
        );
    }
}
