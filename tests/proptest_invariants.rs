//! Cross-crate property tests: randomized datasets and queries exercise
//! the full stack (snapping → histograms → estimators → oracles) against
//! brute-force classification.

use proptest::prelude::*;
use spatial_histograms::baselines::CdHistogram;
use spatial_histograms::core::model::count_by_classification;
use spatial_histograms::core::{
    EulerHistogram, ExactContains2D, Level2Estimator, LiveEulerHistogram, LiveSEuler,
};
use spatial_histograms::datagen::exact::ground_truth;
use spatial_histograms::prelude::*;

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 20.0, 14.0).unwrap()),
        20,
        14,
    )
    .unwrap()
}

fn snap_objects(raw: &[(f64, f64, f64, f64)]) -> Vec<SnappedRect> {
    let s = Snapper::new(grid());
    raw.iter()
        .map(|&(x, y, w, h)| {
            s.snap(&Rect::new(x, y, (x + w).min(20.0), (y + h).min(14.0)).unwrap())
        })
        .collect()
}

prop_compose! {
    fn arb_objects()(v in prop::collection::vec(
        (0.0..20.0f64, 0.0..14.0f64, 0.0..18.0f64, 0.0..12.0f64), 0..80)
    ) -> Vec<(f64, f64, f64, f64)> {
        v
    }
}

prop_compose! {
    fn arb_query()(x0 in 0usize..19, y0 in 0usize..13,
                   w in 1usize..20, h in 1usize..14) -> GridRect {
        GridRect::unchecked(x0, y0, (x0 + w).min(20), (y0 + h).min(14))
    }
}

proptest! {
    /// The Euler histogram's n_ii, CD's inclusion–exclusion and the exact
    /// 4-index structure all equal brute-force intersect counts.
    #[test]
    fn intersect_agreement(raw in arb_objects(), q in arb_query()) {
        let g = grid();
        let objects = snap_objects(&raw);
        let reference = objects.iter().filter(|o| o.intersects(&q)).count() as i64;
        prop_assert_eq!(
            EulerHistogram::build(g, &objects).freeze().intersect_count(&q),
            reference
        );
        prop_assert_eq!(CdHistogram::build(&g, &objects).intersect_count(&q), reference);
        prop_assert_eq!(ExactContains2D::build(&g, &objects).intersect(&q), reference);
    }

    /// The exact structure reproduces full Level 2 counts.
    #[test]
    fn exact_structure_is_an_oracle(raw in arb_objects(), q in arb_query()) {
        let g = grid();
        let objects = snap_objects(&raw);
        prop_assert_eq!(
            ExactContains2D::build(&g, &objects).counts(&q),
            count_by_classification(&objects, &q)
        );
    }

    /// Ground truth over a random tiling equals brute force per tile, and
    /// every estimator's totals partition |S| on those tiles.
    #[test]
    fn tiling_ground_truth_and_partition(raw in arb_objects(),
                                         cols in 1usize..6, rows in 1usize..5) {
        let g = grid();
        let objects = snap_objects(&raw);
        let tiling = Tiling::new(g.full(), cols, rows).unwrap();
        let gt = ground_truth(&objects, &tiling);
        let hist = EulerHistogram::build(g, &objects).freeze();
        let s_est = SEulerApprox::new(hist.clone());
        let e_est = EulerApprox::new(hist);
        let m_est = MEulerApprox::build(g, &objects, &[6.0, 30.0]);
        for ((c, r), tile) in tiling.iter() {
            prop_assert_eq!(*gt.get(c, r), count_by_classification(&objects, &tile));
            for est in [&s_est as &dyn Level2Estimator, &e_est, &m_est] {
                prop_assert_eq!(est.estimate(&tile).total(), objects.len() as i64);
            }
        }
    }

    /// Incremental maintenance: histogram(insert-all) == bulk build, and
    /// removing a random subset equals building from the complement.
    #[test]
    fn linear_sketch_maintenance(raw in arb_objects(),
                                 keep_mask in prop::collection::vec(prop::bool::ANY, 80)) {
        let g = grid();
        let objects = snap_objects(&raw);
        let mut incremental = EulerHistogram::new(g);
        for o in &objects {
            incremental.insert(o);
        }
        prop_assert_eq!(&incremental, &EulerHistogram::build(g, &objects));
        // Remove the masked-out objects.
        let kept: Vec<SnappedRect> = objects
            .iter()
            .zip(&keep_mask)
            .filter_map(|(o, &k)| k.then_some(*o))
            .collect();
        for (o, &k) in objects.iter().zip(&keep_mask) {
            if !k {
                incremental.remove(o);
            }
        }
        prop_assert_eq!(incremental, EulerHistogram::build(g, &kept));
    }

    /// A live histogram (random inserts, then removing a random subset,
    /// crossing seals and refreezes) answers every tile of a tiling —
    /// one tile at a time and as one swept tiling — exactly like a
    /// histogram freshly built-and-frozen from the surviving objects: the
    /// update path and the bulk path agree through the estimator.
    #[test]
    fn dynamic_agrees_with_fresh_freeze(raw in arb_objects(),
                                        keep_mask in prop::collection::vec(prop::bool::ANY, 80),
                                        cols in 1usize..6, rows in 1usize..5) {
        let g = grid();
        let objects = snap_objects(&raw);
        let live = LiveEulerHistogram::with_config(g, 7, Some(13));
        for o in &objects {
            live.insert(o);
        }
        let kept: Vec<SnappedRect> = objects
            .iter()
            .zip(&keep_mask)
            .filter_map(|(o, &k)| k.then_some(*o))
            .collect();
        for (o, &k) in objects.iter().zip(&keep_mask) {
            if !k {
                live.remove(o).expect("a dropped object was inserted");
            }
        }
        let dynamic = LiveSEuler::new(live.pin());
        let fresh = SEulerApprox::new(EulerHistogram::build(g, &kept).freeze());
        let tiling = Tiling::new(g.full(), cols, rows).unwrap();
        for (_, tile) in tiling.iter() {
            prop_assert_eq!(dynamic.estimate(&tile), fresh.estimate(&tile));
        }
        prop_assert_eq!(dynamic.estimate_tiling(&tiling), fresh.estimate_tiling(&tiling));
    }

    /// Estimators are exact whenever the dataset admits no containing or
    /// crossing objects for the query — the §5.2 exactness envelope.
    #[test]
    fn exactness_envelope(raw in arb_objects(), q in arb_query()) {
        let g = grid();
        let objects = snap_objects(&raw);
        prop_assume!(objects
            .iter()
            .all(|o| !o.contains_query(&q) && !o.crosses(&q)));
        let est = SEulerApprox::new(EulerHistogram::build(g, &objects).freeze());
        prop_assert_eq!(est.estimate(&q), count_by_classification(&objects, &q));
    }
}
