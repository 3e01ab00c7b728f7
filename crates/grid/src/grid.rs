use euler_geom::Rect;

use crate::{DataSpace, GridRect};

/// The most Euler buckets any histogram may hold: 2²⁸ ≈ 2.68×10⁸
/// (2 GiB of `i64`s), just above the 8192² grid, whose Euler array is
/// 16383² ≈ 2.68×10⁸ buckets. [`Grid::new`] refuses a grid past it, and
/// the persist decoder refuses an image header past it before any
/// allocation — so a command-line grid, a CSV-backed boot and a decoded
/// checkpoint all meet the same bound.
pub const MAX_EULER_BUCKETS: u64 = 1 << 28;

/// Errors from grid construction and coordinate conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A grid dimension was zero.
    EmptyGrid,
    /// The grid's Euler array would exceed [`MAX_EULER_BUCKETS`].
    TooLarge {
        /// Cells along x.
        nx: usize,
        /// Cells along y.
        ny: usize,
    },
    /// A query rectangle does not align with the grid or exceeds it.
    Misaligned {
        /// Explanation of what failed to align.
        detail: String,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "grid dimensions must be nonzero"),
            GridError::TooLarge { nx, ny } => write!(
                f,
                "a {nx}x{ny} grid needs more than {MAX_EULER_BUCKETS} Euler buckets"
            ),
            GridError::Misaligned { detail } => write!(f, "misaligned query: {detail}"),
        }
    }
}

impl std::error::Error for GridError {}

/// An `nx × ny` equi-width gridding of a [`DataSpace`] (§3).
///
/// The grid defines the *resolution* at which the browsing service
/// operates: an aligned query is exact at this resolution. The paper's
/// running configuration is the 360×180 world space gridded at 1°×1°,
/// i.e. `Grid::paper_default()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    space: DataSpace,
    nx: usize,
    ny: usize,
}

impl Grid {
    /// Creates a grid with `nx × ny` cells over `space`. Its Euler array,
    /// `(2nx − 1)(2ny − 1)` buckets, must fit [`MAX_EULER_BUCKETS`].
    pub fn new(space: DataSpace, nx: usize, ny: usize) -> Result<Grid, GridError> {
        if nx == 0 || ny == 0 {
            return Err(GridError::EmptyGrid);
        }
        let (ew, eh) = (2 * nx as u128 - 1, 2 * ny as u128 - 1);
        let cap = u128::from(MAX_EULER_BUCKETS);
        if ew > cap || eh > cap || ew * eh > cap {
            return Err(GridError::TooLarge { nx, ny });
        }
        Ok(Grid { space, nx, ny })
    }

    /// The paper's configuration: 360×180 world space at 1°×1° resolution.
    pub fn paper_default() -> Grid {
        Grid::new(DataSpace::paper_world(), 360, 180).expect("static dims")
    }

    /// The underlying data space.
    #[inline]
    pub fn space(&self) -> &DataSpace {
        &self.space
    }

    /// Number of cells along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of cells along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells `N = nx × ny`.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Width of one cell in data units.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.space.width() / self.nx as f64
    }

    /// Height of one cell in data units.
    #[inline]
    pub fn cell_height(&self) -> f64 {
        self.space.height() / self.ny as f64
    }

    /// Dimensions of the Euler histogram over this grid:
    /// `(2nx − 1, 2ny − 1)` buckets (§5.1).
    #[inline]
    pub fn euler_dims(&self) -> (usize, usize) {
        (2 * self.nx - 1, 2 * self.ny - 1)
    }

    /// Converts a data-space x coordinate into grid units
    /// (cell widths from the space origin).
    #[inline]
    pub fn to_grid_x(&self, x: f64) -> f64 {
        (x - self.space.bounds().xlo()) / self.cell_width()
    }

    /// Converts a data-space y coordinate into grid units.
    #[inline]
    pub fn to_grid_y(&self, y: f64) -> f64 {
        (y - self.space.bounds().ylo()) / self.cell_height()
    }

    /// Converts a grid-unit x coordinate back to data units.
    #[inline]
    pub fn from_grid_x(&self, gx: f64) -> f64 {
        self.space.bounds().xlo() + gx * self.cell_width()
    }

    /// Converts a grid-unit y coordinate back to data units.
    #[inline]
    pub fn from_grid_y(&self, gy: f64) -> f64 {
        self.space.bounds().ylo() + gy * self.cell_height()
    }

    /// Data-space rectangle of the cell `(cx, cy)`.
    pub fn cell_rect(&self, cx: usize, cy: usize) -> Rect {
        debug_assert!(cx < self.nx && cy < self.ny);
        Rect::new(
            self.from_grid_x(cx as f64),
            self.from_grid_y(cy as f64),
            self.from_grid_x(cx as f64 + 1.0),
            self.from_grid_y(cy as f64 + 1.0),
        )
        .expect("cell bounds ordered")
    }

    /// Data-space rectangle of an aligned query.
    pub fn rect_of(&self, q: &GridRect) -> Rect {
        Rect::new(
            self.from_grid_x(q.x0 as f64),
            self.from_grid_y(q.y0 as f64),
            self.from_grid_x(q.x1 as f64),
            self.from_grid_y(q.y1 as f64),
        )
        .expect("aligned query ordered")
    }

    /// Interprets a data-space rectangle as an aligned query at this grid's
    /// resolution. Fails when a bound does not fall (within `tol` grid
    /// units) on a grid line, or exceeds the grid.
    pub fn align(&self, r: &Rect, tol: f64) -> Result<GridRect, GridError> {
        let snap_line = |g: f64, n: usize, what: &str| -> Result<usize, GridError> {
            let rounded = g.round();
            if (g - rounded).abs() > tol {
                return Err(GridError::Misaligned {
                    detail: format!("{what}={g} is not on a grid line"),
                });
            }
            let idx = rounded as i64;
            if idx < 0 || idx > n as i64 {
                return Err(GridError::Misaligned {
                    detail: format!("{what}={g} outside grid [0, {n}]"),
                });
            }
            Ok(idx as usize)
        };
        let x0 = snap_line(self.to_grid_x(r.xlo()), self.nx, "xlo")?;
        let x1 = snap_line(self.to_grid_x(r.xhi()), self.nx, "xhi")?;
        let y0 = snap_line(self.to_grid_y(r.ylo()), self.ny, "ylo")?;
        let y1 = snap_line(self.to_grid_y(r.yhi()), self.ny, "yhi")?;
        GridRect::new(x0, y0, x1, y1, self)
    }

    /// The aligned query covering the whole grid.
    pub fn full(&self) -> GridRect {
        GridRect {
            x0: 0,
            y0: 0,
            x1: self.nx,
            y1: self.ny,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_geom::Rect;

    #[test]
    fn paper_default_cells() {
        let g = Grid::paper_default();
        assert_eq!(g.cell_count(), 64_800); // the paper's §2 example
        assert_eq!(g.cell_width(), 1.0);
        assert_eq!(g.cell_height(), 1.0);
        assert_eq!(g.euler_dims(), (719, 359));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Grid::new(DataSpace::unit(), 0, 4).unwrap_err(),
            GridError::EmptyGrid
        );
    }

    /// The bucket cap is checked by arithmetic alone: nothing allocates,
    /// and dims whose `2n − 1` would overflow a `usize` are refused too.
    #[test]
    fn rejects_grids_past_the_bucket_cap() {
        let space = DataSpace::paper_world();
        assert!(Grid::new(space, 8192, 8192).is_ok());
        // (2·2²⁷ − 1) · 1 = 2²⁸ − 1 buckets fit; one more column does not.
        assert!(Grid::new(space, 1 << 27, 1).is_ok());
        for (nx, ny) in [
            (1 << 27 | 1, 1),
            (100_000, 100_000),
            (usize::MAX, usize::MAX),
        ] {
            let err = Grid::new(space, nx, ny).unwrap_err();
            assert_eq!(err, GridError::TooLarge { nx, ny });
            assert!(err.to_string().contains("Euler buckets"), "{err}");
        }
    }

    #[test]
    fn coordinate_roundtrip() {
        let g = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
        assert_eq!(g.cell_width(), 10.0);
        assert_eq!(g.to_grid_x(25.0), 2.5);
        assert_eq!(g.from_grid_x(2.5), 25.0);
        assert_eq!(g.to_grid_y(90.0), 9.0);
    }

    #[test]
    fn cell_rect_covers_cell() {
        let g = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
        let c = g.cell_rect(1, 2);
        assert_eq!(c, Rect::new(10.0, 20.0, 20.0, 30.0).unwrap());
    }

    #[test]
    fn align_accepts_grid_lines_and_rejects_offsets() {
        let g = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
        let q = g
            .align(&Rect::new(10.0, 20.0, 30.0, 40.0).unwrap(), 1e-9)
            .unwrap();
        assert_eq!((q.x0, q.y0, q.x1, q.y1), (1, 2, 3, 4));
        assert!(g
            .align(&Rect::new(10.5, 20.0, 30.0, 40.0).unwrap(), 1e-9)
            .is_err());
        assert!(g
            .align(&Rect::new(10.0, 20.0, 400.0, 40.0).unwrap(), 1e-9)
            .is_err());
    }

    #[test]
    fn full_query_spans_grid() {
        let g = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
        let f = g.full();
        assert_eq!((f.x0, f.y0, f.x1, f.y1), (0, 0, 36, 18));
        assert_eq!(g.rect_of(&f), *g.space().bounds());
    }
}
