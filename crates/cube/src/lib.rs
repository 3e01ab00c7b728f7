//! Prefix-sum data cubes — the query-time substrate of every histogram in
//! this workspace.
//!
//! Ho, Agrawal, Megiddo & Srikant's *prefix-sum data cube* \[HAMS97\] stores
//! the cumulative sums of a dense array so that the sum over any axis-
//! aligned index range is answered with `2^d` lookups and `2^d − 1`
//! additions — the constant-time property the paper leans on for its
//! "browsing query with 5000 tiles under 100 ms" goal (§5.2, §6.5).
//!
//! Provided structures:
//!
//! * [`Dense2D`] — a flat row-major 2-D array;
//! * [`PrefixSum2D`] — the 2-D prefix-sum cube with O(1) range sums;
//! * [`CubeBuffer`] — a 2-D array (or a difference array with O(1)
//!   rectangle increments) in the cube's padded layout, which integrates
//!   in place — into the values it records, or into a [`PrefixSum2D`].
//!   It bulk-builds Euler histograms, scatters a live delta over a
//!   tiling, and counts exact ground truth and Min-skew densities;
//! * [`CompressedPrefix2D`] / [`CubeTier`] — a run-length–compressed twin
//!   of the 2-D cube (parity-pair runs + a deduplicating row directory)
//!   and the enum that lets frozen histograms pick a tier per dataset,
//!   bit-identically;
//! * [`DenseNd`] / [`PrefixSumNd`] — the d-dimensional generalization
//!   (the paper states its results for d dimensions in Theorem 3.1);
//! * [`kernels`] — the dense loops behind [`PrefixSum2D`]'s batched
//!   clipped lookups and `euler-core`'s sweep strips.
//!
//! The three 2-D cube structures store [`Cell`]s (`i32`) and widen every
//! read to `i64`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compressed2d;
mod dense2d;
pub mod kernels;
mod ndim;
mod prefix2d;

pub use compressed2d::{CompressedPrefix2D, CubeTier};
pub use dense2d::Dense2D;
pub use ndim::{DenseNd, PrefixSumNd};
pub use prefix2d::{CubeBuffer, PrefixSum2D};

/// One stored value of a 2-D prefix cube ([`CubeBuffer`],
/// [`PrefixSum2D`], [`CompressedPrefix2D`]).
///
/// Cubes store 4-byte cells and widen every read to `i64`, so all
/// arithmetic on cube values — window sums, estimator formulas — runs in
/// `i64` as before. An Euler histogram's values are object counts: a
/// prefix value lies in `[0, N]` and every intermediate of a build or a
/// fold is bounded by the objects it counts, so `i32` holds every
/// histogram of up to `i32::MAX` objects. Writes accumulate in `i64` and
/// narrow on store. A single-cell add checks the narrowing; the
/// whole-array loops of a build, freeze or fold check it in debug
/// builds, and rely in release builds on the object bound their callers
/// enforce.
pub type Cell = i32;

/// A value outside the [`Cell`] range, refused by a checked narrowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOverflow(pub i64);

impl std::fmt::Display for CellOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cube value {} outside the 32-bit cell range", self.0)
    }
}

impl std::error::Error for CellOverflow {}

/// Narrows an `i64` onto a [`Cell`], or reports the value that does not
/// fit.
#[inline]
pub(crate) fn try_narrow(v: i64) -> Result<Cell, CellOverflow> {
    Cell::try_from(v).map_err(|_| CellOverflow(v))
}

/// Narrows an `i64` onto a [`Cell`].
///
/// # Panics
///
/// When `v` is outside the cell range: callers store only values their
/// object bound keeps in range, so this is a broken invariant, never a
/// silent wrap.
#[inline(always)]
pub(crate) fn narrow(v: i64) -> Cell {
    let cell = v as Cell;
    if i64::from(cell) != v {
        overflowed(v);
    }
    cell
}

/// Narrows a value of a whole-array loop (integrate, map, add two
/// cubes), which its caller's object bound keeps in the cell range:
/// checked like [`narrow`] in debug builds, a plain truncating store in
/// release builds, where a check per value would keep these loops from
/// vectorizing and cost the fold about half its time again.
#[inline(always)]
pub(crate) fn narrow_bounded(v: i64) -> Cell {
    if cfg!(debug_assertions) {
        narrow(v)
    } else {
        v as Cell
    }
}

/// The least and greatest of `cells` and 0, in one pass (two iterator
/// reductions measured ~4× slower).
pub(crate) fn min_max(cells: &[Cell]) -> (Cell, Cell) {
    let (mut lo, mut hi) = (0, 0);
    for &v in cells {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cold]
#[inline(never)]
fn overflowed(v: i64) -> ! {
    panic!("{}", CellOverflow(v))
}
