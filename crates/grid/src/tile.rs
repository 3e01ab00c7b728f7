use crate::{Grid, GridError};

/// The tile side lengths (in grid cells) of the paper's eleven query sets
/// `Q₂₀ … Q₂` (§6.1.2). Every entry divides both 360 and 180.
pub const PAPER_TILE_SIZES: [usize; 11] = [20, 18, 15, 12, 10, 9, 6, 5, 4, 3, 2];

/// A grid-aligned query rectangle: cells `[x0, x1) × [y0, y1)` in grid
/// coordinates, i.e. the data-space rectangle between grid lines `x0..x1`
/// and `y0..y1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridRect {
    /// Left grid line index (inclusive).
    pub x0: usize,
    /// Bottom grid line index (inclusive).
    pub y0: usize,
    /// Right grid line index (exclusive as a cell range).
    pub x1: usize,
    /// Top grid line index (exclusive as a cell range).
    pub y1: usize,
}

impl GridRect {
    /// Creates an aligned query, validating it is nonempty and within the
    /// grid.
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize, grid: &Grid) -> Result<Self, GridError> {
        if x0 >= x1 || y0 >= y1 {
            return Err(GridError::Misaligned {
                detail: format!("empty query [{x0},{x1})x[{y0},{y1})"),
            });
        }
        if x1 > grid.nx() || y1 > grid.ny() {
            return Err(GridError::Misaligned {
                detail: format!(
                    "query [{x0},{x1})x[{y0},{y1}) exceeds grid {}x{}",
                    grid.nx(),
                    grid.ny()
                ),
            });
        }
        Ok(GridRect { x0, y0, x1, y1 })
    }

    /// Creates an aligned query without a grid (caller guarantees bounds).
    pub fn unchecked(x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        debug_assert!(x0 < x1 && y0 < y1);
        GridRect { x0, y0, x1, y1 }
    }

    /// Width in cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.x1 - self.x0
    }

    /// Height in cells.
    #[inline]
    pub fn height(&self) -> usize {
        self.y1 - self.y0
    }

    /// Area in cell units (the paper's `area(Q)`).
    #[inline]
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Does this query touch the boundary of the grid?
    pub fn touches_boundary(&self, grid: &Grid) -> bool {
        self.x0 == 0 || self.y0 == 0 || self.x1 == grid.nx() || self.y1 == grid.ny()
    }
}

impl std::fmt::Display for GridRect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{})x[{},{})", self.x0, self.x1, self.y0, self.y1)
    }
}

/// A partition of an aligned region into a `cols × rows` array of tiles —
/// the browsing query of §1 ("California partitioned into 22×24 tiles").
///
/// Tiles are produced in row-major order (bottom row first); when the
/// region does not divide evenly, the last row/column of tiles absorbs the
/// remainder so that the tiling always covers the region exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    region: GridRect,
    cols: usize,
    rows: usize,
}

impl Tiling {
    /// Partition `region` into `cols × rows` tiles.
    pub fn new(region: GridRect, cols: usize, rows: usize) -> Result<Tiling, GridError> {
        if cols == 0 || rows == 0 {
            return Err(GridError::Misaligned {
                detail: "tiling needs nonzero rows and cols".into(),
            });
        }
        if cols > region.width() || rows > region.height() {
            return Err(GridError::Misaligned {
                detail: format!(
                    "cannot split {}x{} cells into {}x{} tiles",
                    region.width(),
                    region.height(),
                    cols,
                    rows
                ),
            });
        }
        Ok(Tiling { region, cols, rows })
    }

    /// The tiled region.
    #[inline]
    pub fn region(&self) -> GridRect {
        self.region
    }

    /// Number of tile columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Always false — constructors reject empty tilings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tile at `(col, row)`.
    pub fn tile(&self, col: usize, row: usize) -> GridRect {
        debug_assert!(col < self.cols && row < self.rows);
        let w = self.region.width() / self.cols;
        let h = self.region.height() / self.rows;
        let x0 = self.region.x0 + col * w;
        let y0 = self.region.y0 + row * h;
        let x1 = if col + 1 == self.cols {
            self.region.x1
        } else {
            x0 + w
        };
        let y1 = if row + 1 == self.rows {
            self.region.y1
        } else {
            y0 + h
        };
        GridRect::unchecked(x0, y0, x1, y1)
    }

    /// Iterate over all tiles in row-major order with their `(col, row)`.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), GridRect)> + '_ {
        let (cols, rows) = (self.cols, self.rows);
        (0..rows).flat_map(move |r| (0..cols).map(move |c| ((c, r), self.tile(c, r))))
    }
}

/// One of the paper's browsing query sets: the whole data space tiled into
/// `n × n`-cell tiles (`Qₙ`, §6.1.2). For the 360×180 paper grid, `Q₁₀`
/// contains `36 × 18 = 648` queries and `Q₂` contains `16,200`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySet {
    tile_size: usize,
    tiling: Tiling,
}

impl QuerySet {
    /// `Qₙ` over the given grid. The tile size must divide both grid
    /// dimensions (it does for every [`PAPER_TILE_SIZES`] entry on the
    /// paper grid).
    pub fn q_n(grid: &Grid, n: usize) -> Result<QuerySet, GridError> {
        if n == 0 || !grid.nx().is_multiple_of(n) || !grid.ny().is_multiple_of(n) {
            return Err(GridError::Misaligned {
                detail: format!("tile size {n} must divide grid {}x{}", grid.nx(), grid.ny()),
            });
        }
        let tiling = Tiling::new(grid.full(), grid.nx() / n, grid.ny() / n)?;
        Ok(QuerySet {
            tile_size: n,
            tiling,
        })
    }

    /// All eleven paper query sets for a grid (skipping any whose tile size
    /// does not divide the grid).
    pub fn paper_sets(grid: &Grid) -> Vec<QuerySet> {
        PAPER_TILE_SIZES
            .iter()
            .filter_map(|&n| QuerySet::q_n(grid, n).ok())
            .collect()
    }

    /// Tile side length `n`.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Underlying tiling.
    #[inline]
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Number of queries in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.tiling.len()
    }

    /// Always false.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over the queries.
    pub fn iter(&self) -> impl Iterator<Item = GridRect> + '_ {
        self.tiling.iter().map(|(_, t)| t)
    }

    /// Label used in result tables, e.g. `"Q10"`.
    pub fn label(&self) -> String {
        format!("Q{}", self.tile_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataSpace;

    fn paper_grid() -> Grid {
        Grid::paper_default()
    }

    #[test]
    fn grid_rect_validation() {
        let g = paper_grid();
        assert!(GridRect::new(0, 0, 0, 5, &g).is_err());
        assert!(GridRect::new(0, 0, 361, 5, &g).is_err());
        let q = GridRect::new(10, 20, 30, 50, &g).unwrap();
        assert_eq!(q.width(), 20);
        assert_eq!(q.height(), 30);
        assert_eq!(q.area(), 600);
        assert!(!q.touches_boundary(&g));
        assert!(GridRect::new(0, 20, 30, 50, &g)
            .unwrap()
            .touches_boundary(&g));
    }

    #[test]
    fn paper_query_set_sizes() {
        let g = paper_grid();
        // §6.1.2: |Q_n| = 360/n × 180/n.
        assert_eq!(QuerySet::q_n(&g, 10).unwrap().len(), 648);
        assert_eq!(QuerySet::q_n(&g, 2).unwrap().len(), 16_200);
        assert_eq!(QuerySet::q_n(&g, 20).unwrap().len(), 18 * 9);
        let all = QuerySet::paper_sets(&g);
        assert_eq!(all.len(), 11);
        assert_eq!(all[0].label(), "Q20");
        assert_eq!(all[10].label(), "Q2");
    }

    #[test]
    fn query_set_rejects_nondivisor() {
        let g = paper_grid();
        assert!(QuerySet::q_n(&g, 7).is_err());
        assert!(QuerySet::q_n(&g, 0).is_err());
    }

    #[test]
    fn tiles_partition_region_exactly() {
        let g = paper_grid();
        for n in PAPER_TILE_SIZES {
            let qs = QuerySet::q_n(&g, n).unwrap();
            let mut covered = 0usize;
            for q in qs.iter() {
                assert_eq!(q.width(), n);
                assert_eq!(q.height(), n);
                covered += q.area();
            }
            assert_eq!(covered, g.cell_count());
        }
    }

    #[test]
    fn uneven_tiling_absorbs_remainder() {
        let g = Grid::new(DataSpace::paper_world(), 10, 10).unwrap();
        let t = Tiling::new(g.full(), 3, 3).unwrap();
        // 10 cells into 3 tiles: widths 3,3,4.
        let widths: Vec<usize> = (0..3).map(|c| t.tile(c, 0).width()).collect();
        assert_eq!(widths, vec![3, 3, 4]);
        let covered: usize = t.iter().map(|(_, q)| q.area()).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn california_tiling_from_the_intro() {
        // Figure 1(b): a region split into 22×24 tiles — just ensure a
        // non-square tiling of a sub-region works and covers it.
        let g = paper_grid();
        let region = GridRect::new(100, 60, 148, 108, &g).unwrap();
        let t = Tiling::new(region, 22, 24).unwrap();
        assert_eq!(t.len(), 528);
        let covered: usize = t.iter().map(|(_, q)| q.area()).sum();
        assert_eq!(covered, region.area());
    }
}
