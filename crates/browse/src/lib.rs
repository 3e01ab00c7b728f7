//! The GeoBrowsing service (§1): multi-tile browsing queries over spatial
//! datasets.
//!
//! A *browsing query* selects a region, partitions it into tiles ("22×24
//! tiles" over California in Figure 1(b)), and asks for the number of
//! objects standing in a chosen Level 2 relation to every tile — hundreds
//! or thousands of trial queries with a single click. This crate wires the
//! estimators of `euler-core` (and the exact backends) into that workflow:
//!
//! * [`run_browse`] — the one browse path: a tiling in, a
//!   [`BrowseResult`] grid of [`RelationCounts`] out, answered through
//!   the batch engine by any [`euler_core::Level2Estimator`]'s
//!   `estimate_tiling` (one amortized sweep on the Euler family);
//! * [`ExactBrowser`] — the exact difference-array backend (ground truth
//!   at scale);
//! * [`BrowsingService`] — a concurrent, updatable front end: writers
//!   insert/remove objects, readers browse consistent snapshots of an
//!   LSM-style live histogram (`euler_core::LiveEulerHistogram`) through
//!   the one engine-backed entry point ([`BrowseSession::browse`] +
//!   [`BrowseRequest`]), with always-on telemetry (latency percentiles,
//!   epochs, zero-hit/mega-hit counters). One body, two read policies:
//!   [`GeoBrowsingService`] refreezes on the first read after a write, so
//!   steady-state browses sweep a pure frozen cube;
//!   [`DynamicGeoBrowsingService`] pins the current snapshot (frozen cube
//!   plus delta view) and never refreezes, so a write-heavy feed stays
//!   cheap and a browse never blocks a concurrent insert;
//! * [`FacetedService`] — multi-attribute browsing (Figure 1's
//!   region/date/subject filters) via one live histogram per facet value;
//! * [`render_heatmap`] — terminal rendering of a result grid (the
//!   Figure 1 color map, in ASCII);
//! * [`advise`] — zero-hit/mega-hit analysis: the query-refinement hints
//!   that motivate browsing in the first place.
//!
//! §1's summaries "at various resolutions" need no second structure: a
//! coarse zoom is an aligned tiling of coarse tiles on the finest grid,
//! answered by the same sweep, and a cube past 2 MiB freezes onto the
//! run-compressed tier.
//!
//! Both read policies are driven through [`BrowseSession`] — pin-stamped
//! snapshot acquisition plus the unified [`BrowseRequest`] browse entry
//! point — which is also what multi-tenant front doors (the `geobrowse
//! serve` mode) and the conformance harness program against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod advise;
mod browser;
mod exact_browser;
mod faceted;
mod render;
mod request;
mod service;
mod session;

pub use advise::{advise, Advice};
pub use browser::{BrowseResult, Relation};
pub use exact_browser::ExactBrowser;
pub use faceted::FacetedService;
pub use render::render_heatmap;
pub use request::BrowseRequest;
pub use service::{BrowsingService, DynamicGeoBrowsingService, GeoBrowsingService};
pub use session::{run_browse, BrowseSession, PinnedSession};

pub use euler_core::RelationCounts;
pub use euler_engine::{BatchOptions, BatchOutcome};
pub use euler_metrics::{Recorder, TelemetrySnapshot};
