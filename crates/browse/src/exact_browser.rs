use euler_datagen::exact::ground_truth;
use euler_grid::{SnappedRect, Tiling};

use crate::BrowseResult;

/// The exact browsing backend: difference-array ground truth over the
/// snapped dataset. O(|S|) per *tiling* (not per tile) — fast enough for
/// interactive use on whole query sets, and the accuracy reference for
/// every estimator-backed browse.
#[derive(Debug, Clone)]
pub struct ExactBrowser {
    objects: Vec<SnappedRect>,
}

impl ExactBrowser {
    /// Wraps a snapped dataset.
    pub fn new(objects: Vec<SnappedRect>) -> ExactBrowser {
        ExactBrowser { objects }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Answers every tile of the tiling exactly.
    pub fn browse(&self, tiling: &Tiling) -> BrowseResult {
        let gt = ground_truth(&self.objects, tiling);
        BrowseResult::new(*tiling, gt.counts().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_browse, BrowseRequest, Relation};
    use euler_core::{EulerHistogram, SEulerApprox};
    use euler_engine::SharedEstimator;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid, Snapper};
    use euler_metrics::Recorder;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn exact_and_euler_browsers_agree_on_small_objects() {
        let g = Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, 16.0, 12.0).unwrap()),
            16,
            12,
        )
        .unwrap();
        let s = Snapper::new(g);
        let mut rng = StdRng::seed_from_u64(5);
        let objs: Vec<_> = (0..300)
            .map(|_| {
                let x = rng.gen_range(0.0..15.0);
                let y = rng.gen_range(0.0..11.0);
                s.snap(&Rect::new(x, y, x + 0.8, y + 0.6).unwrap())
            })
            .collect();
        let exact = ExactBrowser::new(objs.clone());
        let euler: SharedEstimator =
            Arc::new(SEulerApprox::new(EulerHistogram::build(g, &objs).freeze()));
        let tiling = Tiling::new(g.full(), 4, 3).unwrap();
        let er = exact.browse(&tiling);
        let ur = run_browse(&euler, &Recorder::shared(), &tiling, &BrowseRequest::new());
        for ((c, r), _tile) in tiling.iter() {
            // Sub-cell objects, 4-cell tiles: S-EulerApprox is exact here.
            assert_eq!(er.get(c, r), ur.get(c, r), "tile ({c},{r})");
        }
        assert_eq!(
            er.max_of(Relation::Intersect),
            ur.max_of(Relation::Intersect)
        );
    }
}
