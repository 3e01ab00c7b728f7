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
//! * [`Diff2D`] — a 2-D difference array for O(1) rectangle increments,
//!   used to bulk-build Euler histograms and exact ground truth;
//! * [`PrefixSum2D`] — the 2-D prefix-sum cube with O(1) range sums;
//! * [`CubeBuffer`] — a 2-D array (or difference array) in the cube's
//!   padded layout, which sums into a [`PrefixSum2D`] in place;
//! * [`CompressedPrefix2D`] / [`CubeTier`] — a run-length–compressed twin
//!   of the 2-D cube (parity-pair runs + a deduplicating row directory)
//!   and the enum that lets frozen histograms pick a tier per dataset,
//!   bit-identically;
//! * [`DenseNd`] / [`PrefixSumNd`] — the d-dimensional generalization
//!   (the paper states its results for d dimensions in Theorem 3.1);
//! * [`kernels`] — the dense loops behind [`PrefixSum2D`]'s batched
//!   clipped lookups and `euler-core`'s sweep strips.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod compressed2d;
mod dense2d;
mod diff2d;
pub mod kernels;
mod ndim;
mod prefix2d;

pub use compressed2d::{CompressedPrefix2D, CubeTier};
pub use dense2d::Dense2D;
pub use diff2d::Diff2D;
pub use ndim::{DenseNd, PrefixSumNd};
pub use prefix2d::{CubeBuffer, PrefixSum2D};
