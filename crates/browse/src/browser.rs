use euler_core::RelationCounts;
use euler_grid::{GridRect, Tiling};

/// The relation a browsing user asks about — the query-type selector of
/// the GeoBrowsing client (§1: contains, contained, overlap; plus the
/// Level 1 intersect view existing systems offer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Objects contained in a tile (`N_cs`).
    Contains,
    /// Objects containing a tile (`N_cd`).
    Contained,
    /// Objects overlapping a tile (`N_o`).
    Overlap,
    /// Objects intersecting a tile (`N_cs + N_cd + N_o`, Level 1).
    Intersect,
    /// Objects disjoint from a tile (`N_d`).
    Disjoint,
}

impl Relation {
    /// Extracts the relation's count from a tile's [`RelationCounts`].
    pub fn of(&self, c: &RelationCounts) -> i64 {
        match self {
            Relation::Contains => c.contains,
            Relation::Contained => c.contained,
            Relation::Overlap => c.overlaps,
            Relation::Intersect => c.intersecting(),
            Relation::Disjoint => c.disjoint,
        }
    }
}

/// The result of a browsing query: per-tile Level 2 counts over a tiling,
/// plus per-tile *availability* — under deadlines or contained faults the
/// engine may deliver only part of a tiling, and the unanswered tiles are
/// listed here instead of failing the whole browse.
#[derive(Debug, Clone)]
pub struct BrowseResult {
    tiling: Tiling,
    counts: Vec<RelationCounts>,
    /// Row-major indices of tiles with no answer (sorted, usually empty).
    unavailable: Vec<usize>,
}

impl BrowseResult {
    /// Assembles a fully-available result (row-major counts,
    /// [`Tiling::iter`] order).
    pub fn new(tiling: Tiling, counts: Vec<RelationCounts>) -> BrowseResult {
        BrowseResult::with_unavailable(tiling, counts, Vec::new())
    }

    /// Assembles a partial result: `unavailable` lists the row-major
    /// indices of tiles that went unanswered (their counts slots hold
    /// zeros).
    pub fn with_unavailable(
        tiling: Tiling,
        counts: Vec<RelationCounts>,
        mut unavailable: Vec<usize>,
    ) -> BrowseResult {
        assert_eq!(counts.len(), tiling.len(), "one count per tile");
        unavailable.sort_unstable();
        unavailable.dedup();
        assert!(
            unavailable.last().is_none_or(|&i| i < counts.len()),
            "unavailable index out of range"
        );
        BrowseResult {
            tiling,
            counts,
            unavailable,
        }
    }

    /// Whether every tile was answered.
    pub fn is_complete(&self) -> bool {
        self.unavailable.is_empty()
    }

    /// Row-major indices of unanswered tiles (sorted; empty on a full
    /// result). Their counts slots hold zeros — use
    /// [`Self::is_available`] to tell "zero hits" from "no answer".
    pub fn unavailable(&self) -> &[usize] {
        &self.unavailable
    }

    /// Whether tile `(col, row)` was answered.
    pub fn is_available(&self, col: usize, row: usize) -> bool {
        self.unavailable
            .binary_search(&(row * self.tiling.cols() + col))
            .is_err()
    }

    /// The tiling browsed.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Counts for tile `(col, row)`.
    pub fn get(&self, col: usize, row: usize) -> &RelationCounts {
        &self.counts[row * self.tiling.cols() + col]
    }

    /// All counts, row-major.
    pub fn counts(&self) -> &[RelationCounts] {
        &self.counts
    }

    /// Pairs each tile with its counts.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), GridRect, &RelationCounts)> + '_ {
        self.tiling
            .iter()
            .map(move |((c, r), t)| ((c, r), t, self.get(c, r)))
    }

    /// The largest count of `rel` across tiles (heatmap normalization).
    pub fn max_of(&self, rel: Relation) -> i64 {
        self.counts.iter().map(|c| rel.of(c)).max().unwrap_or(0)
    }

    /// The `k` hottest tiles for a relation, descending; ties broken by
    /// tile order. The drill-down list next to a heat map.
    pub fn top_k(&self, rel: Relation, k: usize) -> Vec<((usize, usize), GridRect, i64)> {
        let mut all: Vec<((usize, usize), GridRect, i64)> = self
            .iter()
            .map(|(pos, tile, c)| (pos, tile, rel.of(c)))
            .collect();
        // Ties break in row-major tile order (row, then column).
        all.sort_by(|a, b| b.2.cmp(&a.2).then((a.0 .1, a.0 .0).cmp(&(b.0 .1, b.0 .0))));
        all.truncate(k);
        all
    }

    /// Per-tile difference `self − other` (e.g. two facets, or the same
    /// facet across two time windows). Panics unless both results share
    /// the same tiling. Differences can be negative. A tile unavailable
    /// on either side is unavailable in the difference.
    pub fn diff(&self, other: &BrowseResult) -> BrowseResult {
        assert_eq!(self.tiling, other.tiling, "tilings must match");
        let counts = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| RelationCounts {
                disjoint: a.disjoint - b.disjoint,
                contains: a.contains - b.contains,
                contained: a.contained - b.contained,
                overlaps: a.overlaps - b.overlaps,
            })
            .collect();
        let mut unavailable = self.unavailable.clone();
        unavailable.extend_from_slice(&other.unavailable);
        BrowseResult::with_unavailable(self.tiling, counts, unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;
    use euler_grid::{DataSpace, Grid};

    #[test]
    fn relation_selector() {
        let c = RelationCounts::new(5, 3, 1, 2);
        assert_eq!(Relation::Contains.of(&c), 3);
        assert_eq!(Relation::Contained.of(&c), 1);
        assert_eq!(Relation::Overlap.of(&c), 2);
        assert_eq!(Relation::Intersect.of(&c), 6);
        assert_eq!(Relation::Disjoint.of(&c), 5);
    }

    #[test]
    fn top_k_and_diff() {
        let region = GridRect::unchecked(0, 0, 6, 4);
        let tiling = Tiling::new(region, 3, 2).unwrap();
        let mk = |vals: [i64; 6]| {
            BrowseResult::new(
                tiling,
                vals.iter()
                    .map(|&v| RelationCounts::new(0, v, 0, 0))
                    .collect(),
            )
        };
        let a = mk([5, 1, 9, 2, 9, 0]);
        let top = a.top_k(Relation::Contains, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].2, 9);
        assert_eq!(top[1].2, 9);
        assert_eq!(top[2].2, 5);
        // Ties broken by tile order: (2,0) before (1,1).
        assert_eq!(top[0].0, (2, 0));
        assert_eq!(top[1].0, (1, 1));

        let b = mk([1, 1, 1, 1, 10, 0]);
        let d = a.diff(&b);
        assert_eq!(d.get(0, 0).contains, 4);
        assert_eq!(d.get(1, 1).contains, -1);
        assert_eq!(d.top_k(Relation::Contains, 1)[0].2, 8);
    }

    #[test]
    fn availability_is_per_tile() {
        let region = GridRect::unchecked(0, 0, 6, 4);
        let tiling = Tiling::new(region, 3, 2).unwrap();
        let full = BrowseResult::new(tiling, vec![RelationCounts::default(); 6]);
        assert!(full.is_complete());
        assert!(full.is_available(2, 1));

        let partial = BrowseResult::with_unavailable(
            tiling,
            vec![RelationCounts::default(); 6],
            vec![4, 1, 4], // unsorted + duplicate on purpose
        );
        assert!(!partial.is_complete());
        assert_eq!(partial.unavailable(), &[1, 4]);
        assert!(partial.is_available(0, 0));
        assert!(!partial.is_available(1, 0), "index 1 = (col 1, row 0)");
        assert!(!partial.is_available(1, 1), "index 4 = (col 1, row 1)");

        // Diff: unavailability is the union of both sides.
        let d = full.diff(&partial);
        assert_eq!(d.unavailable(), &[1, 4]);
    }

    #[test]
    #[should_panic(expected = "unavailable index out of range")]
    fn availability_indices_checked() {
        let tiling = Tiling::new(GridRect::unchecked(0, 0, 6, 4), 3, 2).unwrap();
        BrowseResult::with_unavailable(tiling, vec![RelationCounts::default(); 6], vec![6]);
    }

    #[test]
    #[should_panic(expected = "tilings must match")]
    fn diff_requires_matching_tilings() {
        let t1 = Tiling::new(GridRect::unchecked(0, 0, 6, 4), 3, 2).unwrap();
        let t2 = Tiling::new(GridRect::unchecked(0, 0, 6, 4), 2, 2).unwrap();
        let a = BrowseResult::new(t1, vec![RelationCounts::default(); 6]);
        let b = BrowseResult::new(t2, vec![RelationCounts::default(); 4]);
        let _ = a.diff(&b);
    }

    #[test]
    #[should_panic(expected = "one count per tile")]
    fn result_length_checked() {
        let g = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 8.0, 8.0).unwrap()), 8, 8).unwrap();
        let tiling = Tiling::new(g.full(), 2, 2).unwrap();
        BrowseResult::new(tiling, vec![RelationCounts::default()]);
    }
}
