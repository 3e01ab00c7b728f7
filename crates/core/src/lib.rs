//! **euler-core** — the primary contribution of *Exploring Spatial Datasets
//! with Histograms* (Sun, Agrawal, El Abbadi — ICDE 2002).
//!
//! Given a gridded data space, the crate builds an **Euler histogram**
//! ([`EulerHistogram`]): one bucket per vertex, edge and cell of the grid
//! (`(2n₁−1)(2n₂−1)` buckets), with edge buckets negated so that, by
//! Euler's formula, every object–region intersection contributes exactly
//! `+1` to any signed bucket sum (§5.1). On top of the histogram sit three
//! constant-time estimators for the **Level 2 spatial relations**
//! `disjoint / contains / contained / overlap`:
//!
//! * [`SEulerApprox`] — assumes `N_cd = 0` (Equation 11; §5.2), ideal for
//!   datasets of small objects;
//! * [`EulerApprox`] — additionally estimates `N_cd` by offsetting the
//!   *loophole effect* with the Region A/B construction of Figure 11
//!   (§5.3);
//! * [`MEulerApprox`] — partitions objects by area into `m` histograms and
//!   dispatches per query size (§5.4), trading storage for accuracy.
//!
//! The crate also contains:
//!
//! * [`RelationCounts`] and the interior–exterior equation solver of §4.2
//!   ([`model`]);
//! * Euler-characteristic utilities verifying Corollaries 4.1/4.2
//!   ([`formula`]);
//! * the **exact** `contains` structures of §3 ([`ExactContains1D`],
//!   [`ExactContains2D`]) realizing the `O(N²)` storage lower bound of
//!   Theorem 3.1, plus storage-bound calculators ([`storage`]).
//!
//! ## Quick example
//!
//! ```
//! use euler_core::{EulerHistogram, Level2Estimator, SEulerApprox};
//! use euler_grid::{DataSpace, Grid, GridRect, Snapper};
//! use euler_geom::Rect;
//!
//! let grid = Grid::new(DataSpace::paper_world(), 36, 18).unwrap();
//! let snapper = Snapper::new(grid);
//! let objects: Vec<_> = (0..10)
//!     .map(|i| {
//!         let x = 20.0 + 30.0 * i as f64;
//!         snapper.snap(&Rect::new(x, 40.0, x + 5.0, 45.0).unwrap())
//!     })
//!     .collect();
//! let hist = EulerHistogram::build(grid, &objects).freeze();
//! let est = SEulerApprox::new(hist);
//! let q = GridRect::new(0, 0, 18, 9, &grid).unwrap();
//! let counts = est.estimate(&q);
//! assert_eq!(counts.contains + counts.overlaps + counts.disjoint, 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimator;
mod euler_approx;
mod exact_contains;
pub mod formula;
mod histogram;
mod m_euler;
pub mod model;
pub mod persist;
mod s_euler;
pub mod snapshot;
mod source;
pub mod storage;
pub mod sweep;

pub use estimator::{Level2Estimator, RelationCounts};
pub use euler_approx::{EulerApprox, RegionSplit};
pub use exact_contains::{invert_contains_oracle, ExactContains1D, ExactContains2D};
pub use histogram::{EulerHistogram, FrozenEulerHistogram};
pub use m_euler::{MEulerApprox, TuneReport};
pub use s_euler::SEulerApprox;
pub use snapshot::{CheckpointImage, DeltaOp, LiveEulerHistogram, LiveSEuler, LiveSnapshot};
pub use source::{s_euler_counts, EulerSource};
pub use sweep::TilingPlan;
