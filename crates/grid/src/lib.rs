//! Gridding of the data space for the spatial-histograms workspace.
//!
//! The paper (§3) fixes a hyper-rectangle `R²` enclosing the dataset and an
//! `n₁ × n₂` equi-width grid over it; all histogram queries are *aligned*
//! with that grid. This crate provides:
//!
//! * [`DataSpace`] — the enclosing rectangle (the paper's 360×180 world
//!   space is [`DataSpace::paper_world`]);
//! * [`Grid`] — a gridding of a data space, with coordinate conversions;
//! * [`Snapper`] / [`SnappedRect`] — the canonical *snapping* step that
//!   realizes the paper's two modelling assumptions: objects never align
//!   with the grid (§3's "(i,j)" simplification) and `N_eq ≡ 0` (§4.2's
//!   "shrinking"). After snapping, every object is an open rectangle with
//!   non-integer endpoints in grid units, and Level 2 relations against
//!   aligned queries reduce to strict coordinate comparisons;
//! * [`GridRect`] — a grid-aligned query rectangle;
//! * [`Tiling`] and [`QuerySet`] — the browsing "tiles" of §1 and the
//!   `Q₂ … Q₂₀` query sets of §6.1.2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod grid;
mod snap;
mod space;
mod tile;

pub use grid::{Grid, GridError, MAX_EULER_BUCKETS};
pub use snap::{SnappedRect, Snapper, SNAP_EPSILON};
pub use space::DataSpace;
pub use tile::{GridRect, QuerySet, Tiling, PAPER_TILE_SIZES};
