//! Multi-resolution browsing: §1's GeoBrowsing "provides summary
//! information of a data collection or a subset of it **at various
//! resolutions**".
//!
//! A single fine grid answers every aligned tiling (accuracy is
//! resolution-independent for aligned queries — see the
//! `ablation_resolution` experiment), but costs `(2n₁−1)(2n₂−1)` buckets
//! up front. The pyramid instead keeps a ladder of grids, each half the
//! resolution of the previous, and **materializes a level only when a
//! browsing query first needs it**: world-scale overviews are served from
//! kilobyte histograms, and the full-resolution level is only built when
//! a user actually zooms that deep.
//!
//! All levels share **one lineage**: objects are snapped once, at the
//! finest grid, and every coarser level is derived from it — either by an
//! exact 2×2 bucket fold of an already-materialized finer level, or by a
//! direct build over [`SnappedRect::coarsen`]ed objects when no finer
//! level exists yet. The two routes are bit-identical (the fold law in
//! `euler-core`), so a coarse overview never forces the finest cube into
//! memory and never disagrees with it either.
//!
//! A request is dispatched to the *coarsest* level on which the tiling is
//! grid-aligned, which minimizes build cost and working-set size without
//! changing any answer. Materialized levels are published through an
//! epoch snapshot (the same idiom as `euler-core`'s snapshot module):
//! readers pin an immutable `Arc` and never block behind a materializing
//! writer.

use std::sync::{Arc, Mutex, RwLock};

use euler_core::{EulerHistogram, Level2Estimator, SEulerApprox};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, SnappedRect, Snapper, Tiling};

use crate::BrowseResult;

/// Errors from pyramid browsing.
#[derive(Debug, Clone, PartialEq)]
pub enum PyramidError {
    /// The requested region/tiling does not align with any level, not
    /// even the finest.
    Misaligned {
        /// Explanation from the finest level's aligner.
        detail: String,
    },
    /// Construction parameters were invalid.
    BadConfig(&'static str),
}

impl std::fmt::Display for PyramidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PyramidError::Misaligned { detail } => write!(f, "misaligned tiling: {detail}"),
            PyramidError::BadConfig(what) => write!(f, "bad pyramid config: {what}"),
        }
    }
}

impl std::error::Error for PyramidError {}

/// One immutable published state of the ladder: which levels exist, and
/// the estimators serving them. Readers clone the `Arc` and work from a
/// consistent view for the whole request.
struct PyramidSnapshot {
    /// Estimator per level, `None` until materialized (index = level).
    levels: Vec<Option<Arc<SEulerApprox>>>,
    /// Bumped on every publication.
    epoch: u64,
}

/// A lazily-materialized resolution pyramid over one dataset.
pub struct PyramidBrowser {
    space: DataSpace,
    /// Grids, finest (level 0) to coarsest.
    grids: Vec<Grid>,
    /// Objects snapped once at the finest grid — the shared lineage every
    /// level derives from.
    lineage: Vec<SnappedRect>,
    /// Serializes materialization; never held while readers pin.
    writer: Mutex<()>,
    current: RwLock<Arc<PyramidSnapshot>>,
}

impl PyramidBrowser {
    /// Creates a pyramid whose finest grid is `finest_nx × finest_ny`,
    /// halving resolution per level while both dimensions stay even and
    /// at least `levels` deep as permitted. Nothing is built yet.
    pub fn new(
        space: DataSpace,
        finest_nx: usize,
        finest_ny: usize,
        levels: usize,
        rects: Vec<Rect>,
    ) -> Result<PyramidBrowser, PyramidError> {
        if finest_nx == 0 || finest_ny == 0 {
            return Err(PyramidError::BadConfig("finest grid must be nonzero"));
        }
        if levels == 0 {
            return Err(PyramidError::BadConfig("need at least one level"));
        }
        let mut grids = Vec::new();
        let (mut nx, mut ny) = (finest_nx, finest_ny);
        for _ in 0..levels {
            grids.push(Grid::new(space, nx, ny).expect("validated dims"));
            if nx % 2 != 0 || ny % 2 != 0 || nx < 2 || ny < 2 {
                break;
            }
            nx /= 2;
            ny /= 2;
        }
        let snapper = Snapper::new(grids[0]);
        let lineage = rects.iter().map(|r| snapper.snap(r)).collect();
        let snapshot = Arc::new(PyramidSnapshot {
            levels: vec![None; grids.len()],
            epoch: 0,
        });
        Ok(PyramidBrowser {
            space,
            grids,
            lineage,
            writer: Mutex::new(()),
            current: RwLock::new(snapshot),
        })
    }

    /// Number of levels in the ladder (level 0 = finest).
    pub fn level_count(&self) -> usize {
        self.grids.len()
    }

    /// The grid of a level.
    pub fn grid(&self, level: usize) -> &Grid {
        &self.grids[level]
    }

    /// Pins the current published snapshot.
    fn pin(&self) -> Arc<PyramidSnapshot> {
        self.current.read().expect("pyramid lock").clone()
    }

    /// Levels that have been materialized so far.
    pub fn materialized_levels(&self) -> Vec<usize> {
        let snap = self.pin();
        (0..snap.levels.len())
            .filter(|&l| snap.levels[l].is_some())
            .collect()
    }

    /// The publication epoch — bumps once per materialized level.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch
    }

    /// Resident cube bytes of a level, `None` while unmaterialized.
    pub fn level_storage_bytes(&self, level: usize) -> Option<usize> {
        self.pin().levels[level]
            .as_ref()
            .map(|est| est.histogram().storage_bytes())
    }

    /// Picks the coarsest level whose grid aligns the region *and* all
    /// tile boundaries of a `cols × rows` split.
    fn pick_level(&self, region: &Rect, cols: usize, rows: usize) -> Result<usize, PyramidError> {
        let mut finest_error = None;
        for level in (0..self.grids.len()).rev() {
            let grid = &self.grids[level];
            match grid.align(region, 1e-9) {
                Ok(aligned) => {
                    if aligned.width() % cols == 0 && aligned.height() % rows == 0 {
                        return Ok(level);
                    }
                    if level == 0 {
                        finest_error = Some(format!(
                            "{} cells cannot split into {cols}x{rows} equal tiles",
                            aligned
                        ));
                    }
                }
                Err(e) => {
                    if level == 0 {
                        finest_error = Some(e.to_string());
                    }
                }
            }
        }
        Err(PyramidError::Misaligned {
            detail: finest_error.unwrap_or_else(|| "no level aligned".into()),
        })
    }

    /// Builds the histogram for `level` from the cheapest exact source: a
    /// 2×2 fold chain off the nearest finer materialized level if one
    /// exists, else a direct build over the coarsened lineage. Both
    /// routes produce bit-identical buckets (the fold law).
    fn materialize(&self, level: usize, snap: &PyramidSnapshot) -> EulerHistogram {
        let finer = (0..level).rev().find(|&l| snap.levels[l].is_some());
        if let Some(from) = finer {
            let mut h = snap.levels[from]
                .as_ref()
                .expect("checked is_some")
                .histogram()
                .fold2x2()
                .expect("ladder grids stay even while halving");
            for _ in from + 1..level {
                h = h.fold2x2().expect("ladder grids stay even while halving");
            }
            h
        } else {
            let factor = 1usize << level;
            let coarse: Vec<SnappedRect> = self.lineage.iter().map(|s| s.coarsen(factor)).collect();
            EulerHistogram::build(self.grids[level], &coarse)
        }
    }

    fn estimator_for(&self, level: usize) -> Arc<SEulerApprox> {
        if let Some(est) = &self.pin().levels[level] {
            return est.clone();
        }
        let _writer = self.writer.lock().expect("pyramid writer lock");
        // Re-check under the writer lock: another materializer may have
        // published this level while we waited.
        let snap = self.pin();
        if let Some(est) = &snap.levels[level] {
            return est.clone();
        }
        let est = Arc::new(SEulerApprox::new(self.materialize(level, &snap).freeze()));
        let mut levels = snap.levels.clone();
        levels[level] = Some(est.clone());
        *self.current.write().expect("pyramid lock") = Arc::new(PyramidSnapshot {
            levels,
            epoch: snap.epoch + 1,
        });
        est
    }

    /// Browses `region` (data units) as `cols × rows` tiles on the
    /// coarsest sufficient level. Returns the result plus the level used.
    pub fn browse(
        &self,
        region: &Rect,
        cols: usize,
        rows: usize,
    ) -> Result<(BrowseResult, usize), PyramidError> {
        let level = self.pick_level(region, cols, rows)?;
        let grid = &self.grids[level];
        let aligned = grid.align(region, 1e-9).expect("picked level aligns");
        let tiling = Tiling::new(aligned, cols, rows).expect("divisibility checked");
        let est = self.estimator_for(level);
        let counts = est
            .estimate_tiling(&tiling)
            .iter()
            .map(|c| c.clamped())
            .collect();
        Ok((BrowseResult::new(tiling, counts), level))
    }

    /// The data space.
    pub fn space(&self) -> &DataSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;

    fn rects() -> Vec<Rect> {
        (0..400)
            .map(|i| {
                let x = (i * 17 % 350) as f64;
                let y = (i * 7 % 170) as f64;
                Rect::new(x + 0.1, y + 0.1, x + 2.1, y + 1.3).unwrap()
            })
            .collect()
    }

    fn pyramid() -> PyramidBrowser {
        PyramidBrowser::new(DataSpace::paper_world(), 360, 180, 4, rects()).unwrap()
    }

    #[test]
    fn ladder_shape() {
        let p = pyramid();
        // Halving stops when a dimension turns odd: 360x180 → 180x90 →
        // 90x45 (45 is odd, so the requested 4th level is not created).
        assert_eq!(p.level_count(), 3);
        assert_eq!((p.grid(0).nx(), p.grid(0).ny()), (360, 180));
        assert_eq!((p.grid(2).nx(), p.grid(2).ny()), (90, 45));
    }

    #[test]
    fn coarse_views_use_coarse_levels_lazily() {
        let p = pyramid();
        assert!(p.materialized_levels().is_empty());
        assert_eq!(p.epoch(), 0);
        // A 36x18 world view of 10-degree tiles aligns on every level
        // whose cell divides 10 degrees: level 0 (1 deg), 1 (2 deg)...
        let world = Rect::new(0.0, 0.0, 360.0, 180.0).unwrap();
        let (_, level) = p.browse(&world, 36, 18).unwrap();
        assert!(level > 0, "coarse view should use a coarse level");
        assert_eq!(p.materialized_levels(), vec![level]);
        assert_eq!(p.epoch(), 1);
        // The coarse overview must not have dragged the finest cube into
        // memory: its resident footprint stays well under level 0's
        // (2·360−1)(2·180−1) buckets — roughly 4× smaller per halving.
        let coarse_bytes = p.level_storage_bytes(level).unwrap();
        assert!(p.level_storage_bytes(0).is_none());
        assert!(coarse_bytes * 3 < (2 * 360 - 1) * (2 * 180 - 1) * 8);
        // Zooming to 1-degree tiles forces the finest level.
        let city = Rect::new(100.0, 60.0, 110.0, 70.0).unwrap();
        let (_, fine_level) = p.browse(&city, 10, 10).unwrap();
        assert_eq!(fine_level, 0);
        assert_eq!(p.materialized_levels(), vec![0, level]);
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn answers_match_across_levels() {
        // The same aligned tiling answered at different levels must agree
        // **exactly**: all levels fold out of one finest-grid lineage, so
        // dispatch level is unobservable in the counts, not merely in the
        // thresholded relations.
        let p = pyramid();
        let world = Rect::new(0.0, 0.0, 360.0, 180.0).unwrap();
        let (coarse, level) = p.browse(&world, 36, 18).unwrap();
        assert!(level > 0);
        // Force the finest level by asking through a fresh pyramid with
        // one level only.
        let fine = PyramidBrowser::new(DataSpace::paper_world(), 360, 180, 1, rects()).unwrap();
        let (fine_res, fine_level) = fine.browse(&world, 36, 18).unwrap();
        assert_eq!(fine_level, 0);
        for col in 0..36 {
            for row in 0..18 {
                assert_eq!(
                    coarse.get(col, row),
                    fine_res.get(col, row),
                    "tile ({col},{row})"
                );
                assert_eq!(
                    Relation::Intersect.of(coarse.get(col, row)),
                    Relation::Intersect.of(fine_res.get(col, row)),
                    "tile ({col},{row})"
                );
                assert_eq!(
                    Relation::Contains.of(coarse.get(col, row)),
                    Relation::Contains.of(fine_res.get(col, row)),
                    "tile ({col},{row})"
                );
            }
        }
    }

    #[test]
    fn fold_route_matches_direct_route() {
        // Materializing coarse-first (direct build from coarsened
        // lineage) and fine-first (2×2 fold chain) must agree exactly.
        let world = Rect::new(0.0, 0.0, 360.0, 180.0).unwrap();
        let coarse_first = pyramid();
        let (a, level) = coarse_first.browse(&world, 36, 18).unwrap();
        assert!(level > 0);

        let fine_first = pyramid();
        let city = Rect::new(100.0, 60.0, 110.0, 70.0).unwrap();
        let _ = fine_first.browse(&city, 10, 10).unwrap(); // materializes level 0
        let (b, level_b) = fine_first.browse(&world, 36, 18).unwrap();
        assert_eq!(level, level_b);
        for col in 0..36 {
            for row in 0..18 {
                assert_eq!(a.get(col, row), b.get(col, row), "tile ({col},{row})");
            }
        }
    }

    #[test]
    fn misaligned_requests_error() {
        let p = pyramid();
        let crooked = Rect::new(0.25, 0.0, 359.25, 180.0).unwrap();
        assert!(matches!(
            p.browse(&crooked, 10, 10),
            Err(PyramidError::Misaligned { .. })
        ));
        // Aligned region, indivisible tiling.
        let world = Rect::new(0.0, 0.0, 360.0, 180.0).unwrap();
        assert!(matches!(
            p.browse(&world, 7, 18),
            Err(PyramidError::Misaligned { .. })
        ));
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(PyramidBrowser::new(DataSpace::paper_world(), 0, 10, 2, vec![]).is_err());
        assert!(PyramidBrowser::new(DataSpace::paper_world(), 10, 10, 0, vec![]).is_err());
    }
}
