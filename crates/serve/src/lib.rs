//! # euler-serve — concurrent browsing sessions over the estimator engine
//!
//! The admission layer from the serving redesign: many tenants hold
//! line-delimited JSON conversations (over TCP, or in-process) against
//! one shared [`BrowseSession`](euler_browse::BrowseSession), and the
//! server multiplexes them onto the estimator engine without ever
//! queueing unboundedly or answering from an unpublished snapshot.
//!
//! The pipeline per browse request is **admission → cache → engine**:
//!
//! * [`ServeConfig::queue_capacity`] bounds each tenant's in-flight
//!   requests; the next one is shed with a structured `queue_full`
//!   rejection ([`ShedReason`]).
//! * A hot-tiling cache ([`TilingCache`]) keys complete answers by
//!   `(snapshot version, tiling)`; any write advances the version, so
//!   epoch/version advance is the invalidation — no explicit flush.
//! * On a miss, the remaining per-request deadline budget becomes the
//!   engine's `BrowseRequest` deadline, so overload degrades through the
//!   existing ladder: per-tile partial answers (`status:"degraded"`),
//!   never a panic or an unbounded queue.
//!
//! Every response stamps the `(epoch, version)` of the pinned snapshot it
//! was answered from, which is what lets tests verify served answers
//! bit-for-bit against frozen rebuilds of the write-log prefix.
//!
//! ```
//! use std::sync::Arc;
//! use euler_browse::{BrowseSession, DynamicGeoBrowsingService};
//! use euler_geom::Rect;
//! use euler_grid::{DataSpace, Grid};
//! use euler_serve::{LocalClient, Request, Response, ServeConfig, ServeCore};
//!
//! let grid = Grid::new(
//!     DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()), 16, 16,
//! ).unwrap();
//! let service = DynamicGeoBrowsingService::new(grid);
//! service.insert(&Rect::new(2.0, 2.0, 30.0, 30.0).unwrap());
//!
//! let core = ServeCore::new(Arc::new(service), ServeConfig::default());
//! let client = LocalClient::new(core);
//! let req = Request::parse(
//!     r#"{"op":"browse","tenant":"demo","cols":4,"rows":4}"#,
//! ).unwrap();
//! match client.request(&req) {
//!     Response::Browse(reply) => assert!(reply.result.is_complete()),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod core;
mod durable;
mod json;
mod proto;
mod server;
mod tenant;

pub use cache::{CacheKey, CacheStats, TilingCache};
pub use client::{LocalClient, TcpClient};
pub use core::{OpGuard, ServeCore};
pub use durable::DurableSession;
pub use json::{parse as parse_json, Json, JsonError};
pub use proto::{BrowseParams, BrowseReply, ProtoError, Request, Response, ShedReason};
pub use server::{Server, MAX_CONNECTIONS};
pub use tenant::{ServeConfig, TenantSnapshot, TenantState};
