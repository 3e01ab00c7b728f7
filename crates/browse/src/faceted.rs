//! Faceted browsing: the paper's Figure 1 client lets users constrain
//! queries "based on various data attributes such as region, date and
//! subject type" before tiling. This module keeps **one live Euler
//! histogram per attribute value** (facet); because the facets partition
//! the dataset and every Level 2 count is additive over disjoint object
//! sets, a browse under any facet *subset* is the exact sum of per-facet
//! estimates — one tiling sweep per selected facet.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::RwLock;

use euler_core::{Level2Estimator, LiveEulerHistogram, LiveSEuler, RelationCounts};
use euler_geom::Rect;
use euler_grid::{Grid, Snapper, Tiling};

use crate::BrowseResult;

/// A multi-attribute GeoBrowsing service with one histogram per facet
/// value (e.g. per subject type, or per decade).
///
/// Writes take the facet map's write lock and browses pin every selected
/// facet under its read lock, so one browse answers from a single cut of
/// the write order across facets.
pub struct FacetedService<F: Eq + Hash + Clone> {
    grid: Grid,
    snapper: Snapper,
    inner: RwLock<HashMap<F, LiveEulerHistogram>>,
}

impl<F: Eq + Hash + Clone> FacetedService<F> {
    /// An empty service over `grid`.
    pub fn new(grid: Grid) -> FacetedService<F> {
        FacetedService {
            grid,
            snapper: Snapper::new(grid),
            inner: RwLock::new(HashMap::new()),
        }
    }

    /// The service grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Inserts an object under a facet value.
    pub fn insert(&self, facet: F, rect: &Rect) {
        let snapped = self.snapper.snap(rect);
        self.inner
            .write()
            .expect("facet lock")
            .entry(facet)
            .or_insert_with(|| LiveEulerHistogram::new(self.grid))
            .insert(&snapped);
    }

    /// Removes a previously inserted object from a facet. Returns false,
    /// and changes nothing, when the facet is unknown or holds no object;
    /// a refused remove never panics under the facet lock.
    pub fn remove(&self, facet: &F, rect: &Rect) -> bool {
        let snapped = self.snapper.snap(rect);
        let facets = self.inner.write().expect("facet lock");
        facets
            .get(facet)
            .is_some_and(|live| live.remove(&snapped).is_ok())
    }

    /// The facet values currently present.
    pub fn facets(&self) -> Vec<F> {
        self.inner
            .read()
            .expect("facet lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Objects indexed under one facet (0 for unknown facets).
    pub fn facet_len(&self, facet: &F) -> u64 {
        self.inner
            .read()
            .expect("facet lock")
            .get(facet)
            .map_or(0, LiveEulerHistogram::len)
    }

    /// Total objects across facets.
    pub fn len(&self) -> u64 {
        self.inner
            .read()
            .expect("facet lock")
            .values()
            .map(LiveEulerHistogram::len)
            .sum()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Browses a tiling restricted to the given facet values: each
    /// selected facet's tiling sweep, summed per tile, then clamped —
    /// exact additivity over the partition. Unknown facets are ignored,
    /// matching a filter UI where a value may have no objects yet.
    pub fn browse(&self, tiling: &Tiling, filter: &[F]) -> BrowseResult {
        let pinned: Vec<LiveSEuler> = {
            let facets = self.inner.read().expect("facet lock");
            filter
                .iter()
                .filter_map(|f| facets.get(f))
                .map(|live| LiveSEuler::new(live.pin()))
                .collect()
        };
        let mut counts = vec![RelationCounts::default(); tiling.len()];
        for est in &pinned {
            for (acc, c) in counts.iter_mut().zip(est.estimate_tiling(tiling)) {
                *acc = acc.add(&c);
            }
        }
        for c in &mut counts {
            *c = c.clamped();
        }
        BrowseResult::new(*tiling, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrowseSession;
    use euler_grid::DataSpace;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Subject {
        Maps,
        Photos,
        Surveys,
    }

    fn grid() -> Grid {
        Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, 12.0, 12.0).unwrap()),
            12,
            12,
        )
        .unwrap()
    }

    fn service() -> FacetedService<Subject> {
        let svc = FacetedService::new(grid());
        svc.insert(Subject::Maps, &Rect::new(1.2, 1.2, 2.8, 2.8).unwrap());
        svc.insert(Subject::Maps, &Rect::new(7.2, 7.2, 8.8, 8.8).unwrap());
        svc.insert(Subject::Photos, &Rect::new(1.4, 1.4, 2.6, 2.6).unwrap());
        svc.insert(Subject::Surveys, &Rect::new(0.5, 0.5, 11.5, 11.5).unwrap());
        svc
    }

    #[test]
    fn facet_filters_select_subsets() {
        let svc = service();
        let tiling = Tiling::new(grid().full(), 4, 4).unwrap();
        // Maps only: one object in tile (0,0), one in tile (2,2).
        let maps = svc.browse(&tiling, &[Subject::Maps]);
        assert_eq!(maps.get(0, 0).contains, 1);
        assert_eq!(maps.get(2, 2).contains, 1);
        // Maps + photos: tile (0,0) now has two.
        let both = svc.browse(&tiling, &[Subject::Maps, Subject::Photos]);
        assert_eq!(both.get(0, 0).contains, 2);
        // Everything: totals include the big survey object.
        let all = svc.browse(&tiling, &[Subject::Maps, Subject::Photos, Subject::Surveys]);
        assert_eq!(all.counts()[0].total(), 4);
    }

    #[test]
    fn facet_sums_equal_union_estimates() {
        // Additivity: per-facet sums equal a single histogram over all
        // objects (estimators are linear in disjoint datasets) — after a
        // remove, and after writes that land between two browses.
        let svc = service();
        let union = crate::GeoBrowsingService::with_objects(
            grid(),
            [
                Rect::new(1.2, 1.2, 2.8, 2.8).unwrap(),
                Rect::new(7.2, 7.2, 8.8, 8.8).unwrap(),
                Rect::new(1.4, 1.4, 2.6, 2.6).unwrap(),
                Rect::new(0.5, 0.5, 11.5, 11.5).unwrap(),
            ],
        );
        let tiling = Tiling::new(grid().full(), 3, 3).unwrap();
        let all_filter = [Subject::Maps, Subject::Photos, Subject::Surveys];
        let agree = |step: &str| {
            let summed = svc.browse(&tiling, &all_filter);
            let direct = union.browse(&tiling, &crate::BrowseRequest::default());
            assert_eq!(summed.counts(), direct.counts(), "{step}");
        };
        agree("preload");

        let photo = Rect::new(1.4, 1.4, 2.6, 2.6).unwrap();
        assert!(svc.remove(&Subject::Photos, &photo));
        union.remove(&photo);
        agree("after a remove");

        let late = Rect::new(4.2, 9.1, 6.6, 10.3).unwrap();
        svc.insert(Subject::Surveys, &late);
        union.insert(&late);
        svc.insert(Subject::Photos, &photo);
        union.insert(&photo);
        agree("after writes following a browse");
    }

    #[test]
    fn unknown_and_empty_facets() {
        let svc = service();
        let tiling = Tiling::new(grid().full(), 2, 2).unwrap();
        let none: [Subject; 0] = [];
        assert_eq!(svc.browse(&tiling, &none).counts()[0].total(), 0);
        assert_eq!(svc.facet_len(&Subject::Photos), 1);
        assert_eq!(svc.len(), 4);
        assert!(!svc.is_empty());
        let mut facets = svc.facets();
        facets.sort_by_key(|f| format!("{f:?}"));
        assert_eq!(facets.len(), 3);
    }

    #[test]
    fn removal_updates_facet() {
        let svc = service();
        let r = Rect::new(1.4, 1.4, 2.6, 2.6).unwrap();
        assert!(svc.remove(&Subject::Photos, &r));
        assert_eq!(svc.facet_len(&Subject::Photos), 0);
        // Removing under a facet value that was never created is a no-op.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct Unknown;
        let other: FacetedService<Unknown> = FacetedService::new(grid());
        assert!(!other.remove(&Unknown, &r));
        let tiling = Tiling::new(grid().full(), 4, 4).unwrap();
        let photos = svc.browse(&tiling, &[Subject::Photos]);
        assert_eq!(photos.get(0, 0).contains, 0);
    }

    /// A remove on a facet emptied by earlier removes is refused without
    /// a panic, so the facet lock is not poisoned and every later call
    /// still works.
    #[test]
    fn remove_past_empty_leaves_the_service_usable() {
        let svc = service();
        let r = Rect::new(1.4, 1.4, 2.6, 2.6).unwrap();
        assert!(svc.remove(&Subject::Photos, &r));
        assert!(!svc.remove(&Subject::Photos, &r));
        assert_eq!(svc.facet_len(&Subject::Photos), 0);
        assert_eq!(svc.len(), 3);
        svc.insert(Subject::Photos, &r);
        assert_eq!(svc.facet_len(&Subject::Photos), 1);
        let tiling = Tiling::new(grid().full(), 4, 4).unwrap();
        assert_eq!(
            svc.browse(&tiling, &[Subject::Photos]).get(0, 0).contains,
            1
        );
    }
}
