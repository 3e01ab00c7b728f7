//! EulerApprox (§5.3): estimating `N_cd` despite the loophole effect.
//!
//! `n'_ei` (the outside bucket sum) misses every object that *contains*
//! the query — its intersection with the query exterior is an annulus with
//! Euler characteristic `2 − k = 0` (Corollary 4.2, Figure 10). EulerApprox
//! recovers a fourth equation by approximating the *true* `n_ei`
//! (`N_d + N_o + N_cd`) from two auxiliary regions (Figure 11):
//!
//! * **Region A** — the two side slabs of the query exterior inside the
//!   query's y-band, `[0, qx0] × [qy0, qy1]` and `[qx1, nx] × [qy0, qy1]`.
//!   `N_i(A)` is the (per-component exact) count of objects intersecting
//!   them, obtained by interior bucket sums.
//! * **Region B** — the full-width slabs above and below the band,
//!   `[0, nx] × [qy1, ny]` and `[0, nx] × [0, qy0]`. Because every object
//!   lies strictly inside the data space, nothing can contain or cross a
//!   full-width slab, so S-EulerApprox's contains-count is *exact* there;
//!   it reduces to the closed bucket sum of the slab.
//!
//! `N_i(A) + N_cs(B)` approximates `n_ei`; the residual error is `+1` for
//! each object containing a horizontal query edge (O1 — it meets both A
//! slabs) and `−1` for each object poking through a horizontal edge within
//! the query's x-span (O2 — it is in neither A nor contained in B). The
//! two populations shrink/grow oppositely with query size, which is
//! exactly the large-query failure mode that motivates M-EulerApprox
//! (§5.4).

use euler_grid::{GridRect, Tiling};

use crate::sweep::{sweep_euler_approx, TilingPlan};
use crate::{FrozenEulerHistogram, Level2Estimator, RelationCounts};

/// Orientation of the Region A/B split of Figure 11.
///
/// The paper draws one orientation; both are valid and differ only in
/// which query edges generate O1/O2 error, so the choice is exposed for
/// the `ablation_regions` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionSplit {
    /// Region A = left/right slabs inside the query's **y-band**;
    /// Region B = full-width top/bottom slabs. (Figure 11's layout.)
    #[default]
    YBandSides,
    /// The transpose: Region A = bottom/top slabs inside the query's
    /// x-band; Region B = full-height left/right slabs.
    XBandSides,
    /// Evaluate both orientations and average the two `n_ie` proxies —
    /// halves the orientation-specific O1/O2 bias on anisotropic data.
    Average,
}

/// The EulerApprox estimator: Equations 18–22 over a frozen Euler
/// histogram.
#[derive(Debug, Clone)]
pub struct EulerApprox {
    hist: FrozenEulerHistogram,
    split: RegionSplit,
}

impl EulerApprox {
    /// Wraps a frozen histogram with the default (paper) region split.
    pub fn new(hist: FrozenEulerHistogram) -> EulerApprox {
        EulerApprox {
            hist,
            split: RegionSplit::default(),
        }
    }

    /// Wraps a frozen histogram with an explicit region split.
    pub fn with_split(hist: FrozenEulerHistogram, split: RegionSplit) -> EulerApprox {
        EulerApprox { hist, split }
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &FrozenEulerHistogram {
        &self.hist
    }

    /// The configured region split.
    pub fn split(&self) -> RegionSplit {
        self.split
    }
}

/// `N_i(A) + N_cs(B)` — the Figure 11 proxy for the true `n_ei`, doubled
/// to stay integral when averaging both orientations. Shared by
/// EulerApprox and M-EulerApprox's per-group dispatch. Each orientation
/// evaluates its four windows in one `signed_sum4` call.
pub(crate) fn n_ei_proxy_x2(f: &FrozenEulerHistogram, q: &GridRect, split: RegionSplit) -> i64 {
    match split {
        RegionSplit::YBandSides => 2 * proxy_y_band(f, q),
        RegionSplit::XBandSides => 2 * proxy_x_band(f, q),
        RegionSplit::Average => proxy_y_band(f, q) + proxy_x_band(f, q),
    }
}

/// A = side slabs in the y-band, B = full-width top/bottom slabs, with
/// all four windows in one `signed_sum4` call.
///
/// The guarded formula (`guarded_proxy_y_band` in the tests) skips a
/// window whose query edge lies on the data-space border; here no guard
/// is needed: such a window is empty after Euler-index clipping, and its
/// lane's four-corner combination collapses onto shared clamped planes
/// summing to exactly 0 (guard column for a left/bottom edge, repeated
/// last plane for a right/top edge).
fn proxy_y_band(f: &FrozenEulerHistogram, q: &GridRect) -> i64 {
    let nx = f.grid().nx() as i64;
    let ny = f.grid().ny() as i64;
    let (x0, y0) = (q.x0 as i64, q.y0 as i64);
    let (x1, y1) = (q.x1 as i64, q.y1 as i64);
    // Lanes: A left inside, A right inside, B top closed, B bottom closed.
    let s = f.cum().signed_sum4(
        [0, 2 * x1, -1, -1],
        [2 * y0, 2 * y0, 2 * y1 - 1, -1],
        [2 * x0 - 2, 2 * nx - 2, 2 * nx - 1, 2 * nx - 1],
        [2 * y1 - 2, 2 * y1 - 2, 2 * ny - 1, 2 * y0 - 1],
    );
    s[0] + s[1] + s[2] + s[3]
}

/// The transposed split, batched like [`proxy_y_band`].
fn proxy_x_band(f: &FrozenEulerHistogram, q: &GridRect) -> i64 {
    let nx = f.grid().nx() as i64;
    let ny = f.grid().ny() as i64;
    let (x0, y0) = (q.x0 as i64, q.y0 as i64);
    let (x1, y1) = (q.x1 as i64, q.y1 as i64);
    // Lanes: A bottom inside, A top inside, B left closed, B right closed.
    let s = f.cum().signed_sum4(
        [2 * x0, 2 * x0, -1, 2 * x1 - 1],
        [0, 2 * y1, -1, -1],
        [2 * x1 - 2, 2 * x1 - 2, 2 * x0 - 1, 2 * nx - 1],
        [2 * y0 - 2, 2 * ny - 2, 2 * ny - 1, 2 * ny - 1],
    );
    s[0] + s[1] + s[2] + s[3]
}

impl Level2Estimator for EulerApprox {
    fn name(&self) -> &'static str {
        "EulerApprox"
    }

    fn estimate(&self, q: &GridRect) -> RelationCounts {
        let size = self.hist.object_count() as i64;
        // Eq. 18/19, both windows through one batched kernel call.
        let (n_ii, closed) = self.hist.inside_closed_sums(q);
        let n_ei_prime = self.hist.total() - closed;
        let disjoint = size - n_ii;
        let overlaps = n_ei_prime - disjoint; // Eq. 20
                                              // Eq. 21, rounding the (possibly half-integral under Average)
                                              // proxy to the nearest integer.
        let contained = (n_ei_proxy_x2(&self.hist, q, self.split) - 2 * n_ei_prime).div_euclid(2);
        let contains = size - contained - disjoint - overlaps; // Eq. 22
        RelationCounts {
            disjoint,
            contains,
            contained,
            overlaps,
        }
    }

    fn object_count(&self) -> u64 {
        self.hist.object_count()
    }

    fn storage_cells(&self) -> u64 {
        let (ew, eh) = self.hist.grid().euler_dims();
        (ew * eh) as u64
    }

    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        sweep_euler_approx(&self.hist, &TilingPlan::new(t), self.split)
    }

    fn supports_sweep(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::count_by_classification;
    use crate::EulerHistogram;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid, SnappedRect, Snapper};
    use proptest::prelude::*;

    fn grid(nx: usize, ny: usize) -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
            nx,
            ny,
        )
        .unwrap()
    }

    fn snap(g: &Grid, r: (f64, f64, f64, f64)) -> SnappedRect {
        Snapper::new(*g).snap(&Rect::new(r.0, r.1, r.2, r.3).unwrap())
    }

    fn estimator(g: Grid, objs: &[SnappedRect]) -> EulerApprox {
        EulerApprox::new(EulerHistogram::build(g, objs).freeze())
    }

    /// The Figure 11 y-band proxy as the paper states it, one guarded
    /// window at a time: the oracle for the batched [`proxy_y_band`].
    fn guarded_proxy_y_band(h: &FrozenEulerHistogram, q: &GridRect) -> i64 {
        let nx = h.grid().nx();
        let ny = h.grid().ny();
        let mut n = 0;
        if q.x0 > 0 {
            n += h.inside_sum(0, q.y0, q.x0, q.y1); // A left
        }
        if q.x1 < nx {
            n += h.inside_sum(q.x1, q.y0, nx, q.y1); // A right
        }
        if q.y1 < ny {
            n += h.closed_sum(0, q.y1, nx, ny); // B top (contained count)
        }
        if q.y0 > 0 {
            n += h.closed_sum(0, 0, nx, q.y0); // B bottom
        }
        n
    }

    /// The transposed guarded oracle, for [`proxy_x_band`].
    fn guarded_proxy_x_band(h: &FrozenEulerHistogram, q: &GridRect) -> i64 {
        let nx = h.grid().nx();
        let ny = h.grid().ny();
        let mut n = 0;
        if q.y0 > 0 {
            n += h.inside_sum(q.x0, 0, q.x1, q.y0); // A bottom
        }
        if q.y1 < ny {
            n += h.inside_sum(q.x0, q.y1, q.x1, ny); // A top
        }
        if q.x0 > 0 {
            n += h.closed_sum(0, 0, q.x0, ny); // B left
        }
        if q.x1 < nx {
            n += h.closed_sum(q.x1, 0, nx, ny); // B right
        }
        n
    }

    #[test]
    fn recovers_a_single_containing_object_modulo_o1_bias() {
        // One object containing the query: the loophole hides it from
        // n'_ei; the Region A proxy sees it in both side slabs, so the
        // known O1 bias yields N_cd = 2 for the isolated case.
        let g = grid(10, 10);
        let objs = vec![snap(&g, (0.5, 0.5, 9.5, 9.5))];
        let q = GridRect::unchecked(4, 4, 6, 6);
        let est = estimator(g, &objs);
        let e = est.estimate(&q);
        assert!(e.contained >= 1, "containing object detected: {e}");
        // S-EulerApprox would have said N_cd = 0.
    }

    #[test]
    fn exact_for_clean_configurations() {
        // No O1, no O2, no crossover, no containing objects: EulerApprox
        // degenerates to exact results.
        let g = grid(12, 12);
        let objs = vec![
            snap(&g, (1.2, 1.2, 2.8, 2.8)),   // disjoint (in B bottom... left)
            snap(&g, (5.2, 5.2, 6.8, 6.8)),   // contained in query
            snap(&g, (3.5, 5.0, 5.5, 6.0)),   // overlaps from the left (A)
            snap(&g, (9.2, 9.4, 10.8, 11.0)), // disjoint top-right
        ];
        let q = GridRect::unchecked(4, 4, 8, 8);
        let est = estimator(g, &objs);
        let exact = count_by_classification(&objs, &q);
        assert_eq!(est.estimate(&q), exact);
    }

    #[test]
    fn o1_and_o2_cancel_pairwise() {
        // One O1 (contains the top edge) + one O2 (pokes through the top
        // edge within the x-span): their ±1 errors cancel and the
        // aggregate counts come out exact.
        let g = grid(12, 12);
        let objs = vec![
            snap(&g, (2.5, 6.5, 11.5, 8.5)), // O1: spans [4,8] x-range at top edge y=8
            snap(&g, (5.2, 7.2, 6.8, 9.5)),  // O2: pokes through top edge inside span
        ];
        let q = GridRect::unchecked(4, 4, 8, 8);
        let exact = count_by_classification(&objs, &q);
        assert_eq!(exact, RelationCounts::new(0, 0, 0, 2));
        let est = estimator(g, &objs);
        assert_eq!(est.estimate(&q), exact);
    }

    #[test]
    fn split_orientations_differ_on_anisotropic_objects() {
        // A wide flat object containing only horizontal edges is an O1 for
        // the y-band split but perfectly handled by the x-band split.
        let g = grid(12, 12);
        let objs = vec![snap(&g, (2.5, 5.5, 11.5, 6.5))]; // overlaps via left&right
        let q = GridRect::unchecked(4, 4, 8, 8);
        let exact = count_by_classification(&objs, &q);
        let y_est = EulerApprox::with_split(
            EulerHistogram::build(g, &objs).freeze(),
            RegionSplit::YBandSides,
        );
        let x_est = EulerApprox::with_split(
            EulerHistogram::build(g, &objs).freeze(),
            RegionSplit::XBandSides,
        );
        // The bar crosses the query (left+right): n'_ei double counts it;
        // but for the y-band split it is also double counted in A, so the
        // N_cd error cancels; for the x-band split it is contained in
        // neither B slab and intersects neither A slab.
        let ye = y_est.estimate(&q);
        let xe = x_est.estimate(&q);
        assert_eq!(
            ye.contained, 0,
            "y-band: A double-count cancels n'_ei double-count"
        );
        assert_eq!(xe.contained - exact.contained, -2);
    }

    #[test]
    fn average_split_halves_orientation_bias() {
        let g = grid(12, 12);
        let objs = vec![snap(&g, (2.5, 5.5, 11.5, 6.5))];
        let q = GridRect::unchecked(4, 4, 8, 8);
        let avg = EulerApprox::with_split(
            EulerHistogram::build(g, &objs).freeze(),
            RegionSplit::Average,
        );
        let e = avg.estimate(&q);
        // y-band error 0, x-band error -2 → averaged error -1.
        assert_eq!(e.contained, -1);
    }

    proptest! {
        /// The batched `signed_sum4` proxy equals the guarded per-window
        /// formula for every region split, on both cube tiers — including
        /// queries on the data-space border, where the guards skip a
        /// window and the batched lanes must sum to exactly 0.
        #[test]
        fn batched_proxy_equals_guarded_formula(
            objs in prop::collection::vec(
                (0.0..15.0f64, 0.0..11.0f64, 0.05..14.0f64, 0.05..10.0f64), 0..60),
            qx in 0usize..15, qy in 0usize..11,
            qw in 1usize..16, qh in 1usize..12,
        ) {
            let g = grid(16, 12);
            let snapped: Vec<SnappedRect> = objs
                .iter()
                .map(|&(x, y, w, h)| snap(&g, (x, y, (x + w).min(16.0), (y + h).min(12.0))))
                .collect();
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(16), (qy + qh).min(12));
            let hist = EulerHistogram::build(g, &snapped);
            for f in [hist.freeze_dense(), hist.freeze_compressed()] {
                let (y, x) = (guarded_proxy_y_band(&f, &q), guarded_proxy_x_band(&f, &q));
                for (split, want) in [
                    (RegionSplit::YBandSides, 2 * y),
                    (RegionSplit::XBandSides, 2 * x),
                    (RegionSplit::Average, y + x),
                ] {
                    prop_assert_eq!(n_ei_proxy_x2(&f, &q, split), want, "{:?} {}", split, q);
                }
            }
        }

        /// The error-decomposition theorem behind EXPERIMENTS.md's sz_skew
        /// analysis: for the y-band split, the Region A/B proxy equals the
        /// true n_ei plus #O1 (objects containing a horizontal query edge,
        /// including query containers) minus #O2 (objects poking through a
        /// horizontal edge within the query's x-span) plus #horizontal
        /// crossovers (they meet both A slabs, like O1 — but unlike O1
        /// this surplus cancels in N_cd, because n'_ei double-counts the
        /// same objects). Exact, per query.
        #[test]
        fn proxy_error_is_o1_minus_o2(
            objs in prop::collection::vec(
                (0.0..15.0f64, 0.0..11.0f64, 0.05..14.0f64, 0.05..10.0f64), 0..60),
            qx in 0usize..15, qy in 0usize..11,
            qw in 1usize..16, qh in 1usize..12,
        ) {
            let g = grid(16, 12);
            let snapped: Vec<SnappedRect> = objs
                .iter()
                .map(|&(x, y, w, h)| snap(&g, (x, y, (x + w).min(16.0), (y + h).min(12.0))))
                .collect();
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(16), (qy + qh).min(12));
            let hist = EulerHistogram::build(g, &snapped).freeze();
            let proxy = super::n_ei_proxy_x2(&hist, &q, RegionSplit::YBandSides) / 2;

            let (qx0, qy0, qx1, qy1) =
                (q.x0 as f64, q.y0 as f64, q.x1 as f64, q.y1 as f64);
            let mut true_n_ei = 0i64; // objects whose interior meets the query exterior
            let mut o1 = 0i64;
            let mut o2 = 0i64;
            let mut crossovers = 0i64;
            for o in &snapped {
                if !o.contained_in_query(&q) {
                    true_n_ei += 1;
                }
                let spans_x = o.a() < qx0 && o.b() > qx1;
                let within_x = o.a() > qx0 && o.b() < qx1;
                let within_y = o.c() > qy0 && o.d() < qy1;
                let crosses_top = o.c() < qy1 && o.d() > qy1;
                let crosses_bottom = o.c() < qy0 && o.d() > qy0;
                if spans_x && (crosses_top || crosses_bottom) {
                    // One +1 per crossed horizontal edge, but a query
                    // container (crossing both) is double-counted only
                    // once (it meets each A slab exactly once).
                    o1 += i64::from(crosses_top) + i64::from(crosses_bottom)
                        - i64::from(crosses_top && crosses_bottom);
                }
                if spans_x && within_y {
                    crossovers += 1;
                }
                if within_x && o.intersects(&q) && (crosses_top || crosses_bottom) {
                    o2 += 1;
                }
            }
            prop_assert_eq!(proxy, true_n_ei + o1 - o2 + crossovers);
        }

        /// Totals are preserved and N_d / N_o match S-EulerApprox exactly
        /// (§6.3: all three algorithms share the N_o estimator).
        #[test]
        fn shares_no_and_nd_with_s_euler(
            objs in prop::collection::vec(
                (0.0..15.0f64, 0.0..11.0f64, 0.05..14.0f64, 0.05..10.0f64), 0..50),
            qx in 0usize..15, qy in 0usize..11,
            qw in 1usize..16, qh in 1usize..12,
        ) {
            let g = grid(16, 12);
            let snapped: Vec<SnappedRect> = objs
                .iter()
                .map(|&(x, y, w, h)| snap(&g, (x, y, (x + w).min(16.0), (y + h).min(12.0))))
                .collect();
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(16), (qy + qh).min(12));
            let hist = EulerHistogram::build(g, &snapped).freeze();
            let e = EulerApprox::new(hist.clone()).estimate(&q);
            let s = crate::SEulerApprox::new(hist).estimate(&q);
            prop_assert_eq!(e.disjoint, s.disjoint);
            prop_assert_eq!(e.overlaps, s.overlaps);
            prop_assert_eq!(e.total(), snapped.len() as i64);
        }

        /// Without containing, crossover, O1 or O2 objects, EulerApprox is
        /// exact.
        #[test]
        fn exact_in_clean_configurations_prop(
            objs in prop::collection::vec(
                (0.0..15.0f64, 0.0..11.0f64, 0.05..3.0f64, 0.05..3.0f64), 0..40),
            qx in 2usize..12, qy in 2usize..8,
        ) {
            let g = grid(16, 12);
            let (qx1, qy1) = (qx + 4, qy + 4);
            let q = GridRect::unchecked(qx, qy, qx1.min(16), qy1.min(12));
            let snapped: Vec<SnappedRect> = objs
                .iter()
                .map(|&(x, y, w, h)| snap(&g, (x, y, (x + w).min(16.0), (y + h).min(12.0))))
                .collect();
            // Filter to a "clean" configuration: nothing touches the
            // horizontal edges of the query from outside the corners...
            // conservatively: no object intersects the query's horizontal
            // boundary lines.
            let clean = snapped.iter().all(|o| {
                let crosses_top = o.c() < q.y1 as f64 && o.d() > q.y1 as f64
                    && o.a() < q.x1 as f64 && o.b() > q.x0 as f64;
                let crosses_bottom = o.c() < q.y0 as f64 && o.d() > q.y0 as f64
                    && o.a() < q.x1 as f64 && o.b() > q.x0 as f64;
                !crosses_top && !crosses_bottom && !o.crosses(&q) && !o.contains_query(&q)
            });
            prop_assume!(clean);
            let est = estimator(g, &snapped);
            let exact = count_by_classification(&snapped, &q);
            prop_assert_eq!(est.estimate(&q), exact);
        }
    }
}
