//! S-EulerApprox (§5.2): the simple Euler approximation, assuming
//! `N_cd = 0` (no object contains the query).
//!
//! Exactness characterization (borne out by §6.2's experiments and the
//! property tests below): when no object **contains** the query and no
//! object **crosses** it, S-EulerApprox is *exact* at the grid resolution.
//! Each crossover inflates `n_ei` by one (Figure 9(b)); each containing
//! object is misattributed from `N_cd` to overlap/contains error.

use std::sync::{Arc, Mutex};

use euler_grid::{GridRect, Tiling};

use crate::sweep::{sweep_s_euler, TilingPlan};
use crate::{s_euler_counts, FrozenEulerHistogram, Level2Estimator, RelationCounts};

/// The S-EulerApprox estimator: Equations 14–17 over a frozen Euler
/// histogram. (Live reads use [`crate::LiveSEuler`], the same algebra
/// over a pinned snapshot.)
#[derive(Debug)]
pub struct SEulerApprox {
    hist: FrozenEulerHistogram,
    /// Most recent [`TilingPlan`], keyed by its [`Tiling`]. Browsing
    /// workloads re-answer the same tiling against evolving data, so the
    /// plan build would otherwise recur on every call; the lock is held
    /// only to clone the `Arc`, never across a sweep.
    plan_cache: Mutex<Option<Arc<TilingPlan>>>,
}

impl Clone for SEulerApprox {
    fn clone(&self) -> SEulerApprox {
        SEulerApprox {
            hist: self.hist.clone(),
            plan_cache: Mutex::new(self.plan_cache.lock().unwrap().clone()),
        }
    }
}

impl SEulerApprox {
    /// Wraps a frozen histogram.
    pub fn new(hist: FrozenEulerHistogram) -> SEulerApprox {
        SEulerApprox {
            hist,
            plan_cache: Mutex::new(None),
        }
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &FrozenEulerHistogram {
        &self.hist
    }

    /// The cached plan for `t`, building and stashing one on miss.
    fn plan_for(&self, t: &Tiling) -> Arc<TilingPlan> {
        let mut cache = self.plan_cache.lock().unwrap();
        if let Some(plan) = cache.as_ref() {
            if plan.tiling() == t {
                return Arc::clone(plan);
            }
        }
        let plan = Arc::new(TilingPlan::new(t));
        *cache = Some(Arc::clone(&plan));
        plan
    }
}

impl Level2Estimator for SEulerApprox {
    fn name(&self) -> &'static str {
        "S-EulerApprox"
    }

    fn estimate(&self, q: &GridRect) -> RelationCounts {
        // Equations 14-17.
        s_euler_counts(&self.hist, q)
    }

    fn object_count(&self) -> u64 {
        self.hist.object_count()
    }

    fn storage_cells(&self) -> u64 {
        let (ew, eh) = self.hist.grid().euler_dims();
        (ew * eh) as u64
    }

    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        self.estimate_tiling_total(t).0
    }

    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        let (size, total) = (self.hist.object_count() as i64, self.hist.total());
        sweep_s_euler(&self.hist, &self.plan_for(t), size, total, None)
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

    #[test]
    fn exact_for_small_objects_large_query() {
        let g = grid(10, 10);
        let objs: Vec<SnappedRect> = [
            (1.2, 1.2, 2.1, 1.9),
            (4.5, 4.5, 5.2, 5.1),
            (7.3, 2.2, 8.0, 3.0),
            (2.5, 7.5, 3.4, 8.2),
            (8.6, 8.6, 9.4, 9.4),
        ]
        .iter()
        .map(|&r| snap(&g, r))
        .collect();
        let est = SEulerApprox::new(EulerHistogram::build(g, &objs).freeze());
        for q in [
            GridRect::unchecked(0, 0, 5, 5),
            GridRect::unchecked(3, 3, 9, 9),
            GridRect::unchecked(0, 0, 10, 10),
        ] {
            let exact = count_by_classification(&objs, &q);
            assert_eq!(est.estimate(&q), exact, "query {q}");
        }
    }

    #[test]
    fn containing_object_breaks_the_assumption() {
        // §6.2: when N_cd > 0 the N_cs estimate degrades. An object that
        // contains the query is invisible in n'_ei (loophole), so it is
        // wrongly credited to N_cs.
        let g = grid(10, 10);
        let objs = vec![snap(&g, (0.5, 0.5, 9.5, 9.5))];
        let est = SEulerApprox::new(EulerHistogram::build(g, &objs).freeze());
        let q = GridRect::unchecked(4, 4, 6, 6);
        let e = est.estimate(&q);
        let exact = count_by_classification(&objs, &q);
        assert_eq!(exact.contained, 1);
        assert_eq!(e.contained, 0);
        assert_eq!(e.contains, 1, "containing object misattributed to N_cs");
    }

    #[test]
    fn crossover_inflates_overlap_and_deflates_contains() {
        // Figure 9(b): crossover double-counts in n_ei, so N_cs drops by 1
        // and N_o rises by 1 per crossover.
        let g = grid(10, 10);
        let objs = vec![
            snap(&g, (0.5, 4.2, 9.5, 5.8)), // horizontal bar crossing
            snap(&g, (3.2, 3.2, 4.8, 6.8)), // contained in the query
        ];
        let est = SEulerApprox::new(EulerHistogram::build(g, &objs).freeze());
        let q = GridRect::unchecked(3, 0, 7, 10); // tall slab query
        let exact = count_by_classification(&objs, &q);
        assert_eq!(exact, RelationCounts::new(0, 1, 0, 1));
        let e = est.estimate(&q);
        assert_eq!(e.contains, 0, "crossover steals one from N_cs");
        assert_eq!(e.overlaps, 2, "crossover adds one to N_o");
        assert_eq!(e.total(), 2, "totals still consistent");
    }

    proptest! {
        /// When no object contains or crosses the query, S-EulerApprox is
        /// exact at the grid resolution.
        #[test]
        fn exact_without_contained_or_crossover(
            objs in prop::collection::vec(
                (0.0..15.0f64, 0.0..11.0f64, 0.05..6.0f64, 0.05..6.0f64), 0..50),
            qx in 0usize..15, qy in 0usize..11,
            qw in 1usize..16, qh in 1usize..12,
        ) {
            let g = grid(16, 12);
            let snapped: Vec<SnappedRect> = objs
                .iter()
                .map(|&(x, y, w, h)| snap(&g, (x, y, (x + w).min(16.0), (y + h).min(12.0))))
                .collect();
            let q = GridRect::unchecked(qx, qy, (qx + qw).min(16), (qy + qh).min(12));
            prop_assume!(snapped.iter().all(|o| !o.contains_query(&q) && !o.crosses(&q)));
            let est = SEulerApprox::new(EulerHistogram::build(g, &snapped).freeze());
            let exact = count_by_classification(&snapped, &q);
            prop_assert_eq!(est.estimate(&q), exact);
        }

        /// Estimates always sum to |S| and N_d is always exact (n_ii is
        /// exact regardless of dataset shape).
        #[test]
        fn invariants_hold_for_any_dataset(
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
            let est = SEulerApprox::new(EulerHistogram::build(g, &snapped).freeze());
            let e = est.estimate(&q);
            let exact = count_by_classification(&snapped, &q);
            prop_assert_eq!(e.total(), snapped.len() as i64);
            prop_assert_eq!(e.disjoint, exact.disjoint, "N_d is exact");
        }
    }
}
