//! **spatial-histograms** — a complete Rust implementation of
//! *Exploring Spatial Datasets with Histograms* (Sun, Agrawal, El Abbadi —
//! ICDE 2002): Euler histograms and constant-time estimators for the
//! Level 2 spatial relations (`disjoint` / `contains` / `contained` /
//! `overlap`) of rectangle datasets, plus the browsing service built on
//! them.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`geom`] | rectangles, interval topology, 9-intersection & interior–exterior relation models |
//! | [`grid`] | data-space gridding, canonical snapping, tilings and query sets |
//! | [`cube`] | prefix-sum data cubes (2-D and d-dimensional) |
//! | [`core`] | Euler histograms, S-/M-/EulerApprox, exact `contains` structures, storage bounds, the epoch-snapshot live histogram |
//! | [`rtree`] | R-tree substrate for exact index baselines |
//! | [`baselines`] | CD, Beigel–Tanin, Min-skew, naive scan, R-tree oracle |
//! | [`datagen`] | the paper's four datasets (seeded) and exact ground truth |
//! | [`engine`] | the batch query engine: shared-estimator fan-out, panic isolation, deadlines, fault injection |
//! | [`browse`] | the GeoBrowsing service: multi-tile queries, heat maps, advice |
//! | [`metrics`] | average relative error, scatter stats, timing, text tables, hot-path telemetry |
//! | [`conformance`] | the differential conformance harness: seeded cases, invariant catalogue, failure shrinking |
//!
//! The [`prelude`] exposes the types most applications need. The browse
//! service is one type, [`browse::BrowsingService`], with two read
//! policies: [`browse::GeoBrowsingService`] refreezes on the first read
//! after a write, [`browse::DynamicGeoBrowsingService`] pins the current
//! snapshot and never refreezes. Both are driven through the
//! [`browse::BrowseSession`] trait, which the prelude imports.
//!
//! ```
//! use spatial_histograms::prelude::*;
//!
//! // Grid the world at 1x1 degree, index a few objects, browse.
//! let grid = Grid::paper_default();
//! let service = GeoBrowsingService::new(grid);
//! service.insert(&Rect::new(10.0, 10.0, 12.0, 11.0).unwrap());
//! service.insert(&Rect::new(200.0, 90.0, 203.0, 94.0).unwrap());
//! let tiling = Tiling::new(grid.full(), 36, 18).unwrap();
//! let result = service.browse(&tiling, &BrowseRequest::default());
//! assert_eq!(result.counts().iter().map(|c| c.contains).sum::<i64>(), 2);
//! // Every browse feeds the service telemetry.
//! let stats = service.telemetry();
//! assert_eq!(stats.queries, 36 * 18);
//! assert!(stats.query_latency.p50() <= stats.query_latency.p99());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use euler_baselines as baselines;
pub use euler_browse as browse;
pub use euler_conformance as conformance;
pub use euler_core as core;
pub use euler_cube as cube;
pub use euler_datagen as datagen;
pub use euler_engine as engine;
pub use euler_geom as geom;
pub use euler_grid as grid;
pub use euler_metrics as metrics;
pub use euler_rtree as rtree;
pub use euler_serve as serve;
pub use euler_wal as wal;

/// The types most applications need, in one import.
pub mod prelude {
    pub use euler_browse::{
        advise, render_heatmap, run_browse, BrowseRequest, BrowseSession,
        DynamicGeoBrowsingService, ExactBrowser, GeoBrowsingService, PinnedSession, Relation,
    };
    pub use euler_core::{
        DeltaOp, EulerApprox, EulerHistogram, Level2Estimator, LiveEulerHistogram, LiveSEuler,
        LiveSnapshot, MEulerApprox, RelationCounts, SEulerApprox, TilingPlan,
    };
    pub use euler_engine::{
        BatchOptions, BatchOutcome, BatchResult, ChunkError, DegradeReason, EngineBuilder,
        EstimatorEngine, FailReason, QueryBatch, SharedEstimator,
    };
    pub use euler_geom::{Level2Relation, Point, Rect};
    pub use euler_grid::{DataSpace, Grid, GridRect, QuerySet, SnappedRect, Snapper, Tiling};
    pub use euler_metrics::{
        HistogramSnapshot, LatencyHistogram, Recorder, RelationTally, TelemetrySnapshot,
    };
}
