//! The GeoBrowsing service (§1): multi-tile browsing queries over spatial
//! datasets.
//!
//! A *browsing query* selects a region, partitions it into tiles ("22×24
//! tiles" over California in Figure 1(b)), and asks for the number of
//! objects standing in a chosen Level 2 relation to every tile — hundreds
//! or thousands of trial queries with a single click. This crate wires the
//! estimators of `euler-core` (and the exact backends) into that workflow:
//!
//! * [`Browser`] — the service interface: a tiling in, a grid of
//!   [`RelationCounts`] out;
//! * [`EulerBrowser`] — constant-time browsing over any
//!   [`euler_core::Level2Estimator`];
//! * [`ExactBrowser`] — the exact difference-array backend (ground truth
//!   at scale);
//! * [`GeoBrowsingService`] — a concurrent, updatable front end: writers
//!   insert/remove objects, readers browse consistent epoch snapshots of
//!   an LSM-style live histogram (`euler_core::LiveEulerHistogram`)
//!   through the one engine-backed entry point
//!   ([`GeoBrowsingService::browse`] + [`BrowseRequest`]), with always-on
//!   telemetry (latency percentiles, epochs, zero-hit/mega-hit counters);
//! * [`DynamicGeoBrowsingService`] — the write-heavy profile of the same
//!   substrate: browses pin the current snapshot (frozen cube + delta
//!   view) and hold no lock across the tiling, so a browse never blocks
//!   a concurrent insert;
//! * [`FacetedService`] — multi-attribute browsing (Figure 1's
//!   region/date/subject filters) via one histogram per facet value;
//! * [`PyramidBrowser`] — §1's "various resolutions": a lazily
//!   materialized ladder of grids sharing one finest-grid lineage (coarse
//!   levels derived by exact 2×2 fold, published via epoch snapshots),
//!   coarse views served from kilobyte histograms;
//! * [`render_heatmap`] — terminal rendering of a result grid (the
//!   Figure 1 color map, in ASCII);
//! * [`advise`] — zero-hit/mega-hit analysis: the query-refinement hints
//!   that motivate browsing in the first place.
//!
//! Both updatable services implement [`BrowseSession`] — pin-stamped
//! snapshot acquisition plus the unified [`BrowseRequest`] browse entry
//! point — which is what multi-tenant front doors (the `geobrowse serve`
//! mode) and the conformance harness program against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod advise;
mod browser;
mod dynamic_service;
mod exact_browser;
mod faceted;
mod pyramid;
mod render;
mod request;
mod service;
mod session;

pub use advise::{advise, Advice};
pub use browser::{BrowseResult, Browser, EulerBrowser, Relation};
pub use dynamic_service::DynamicGeoBrowsingService;
pub use exact_browser::ExactBrowser;
pub use faceted::FacetedService;
pub use pyramid::{PyramidBrowser, PyramidError};
pub use render::render_heatmap;
pub use request::BrowseRequest;
pub use service::GeoBrowsingService;
pub use session::{run_browse, BrowseSession, PinnedSession};

pub use euler_core::RelationCounts;
pub use euler_engine::{BatchOptions, BatchOutcome, CancelToken};
pub use euler_metrics::{Recorder, TelemetrySnapshot};
