//! The serving pipeline: admission → cache → engine.
//!
//! [`ServeCore`] is transport-agnostic and synchronous — the TCP server
//! calls [`ServeCore::handle`] inline on each connection's thread, tests
//! call it directly. It multiplexes every tenant onto one [`BrowseSession`]
//! (either service profile) and degrades under load instead of queueing:
//!
//! 1. **Admission** — each tenant holds at most `queue_capacity`
//!    in-flight requests; the next one is shed with a structured
//!    `queue_full` rejection. Nothing ever waits in an unbounded queue.
//! 2. **Cache** — the request pins a snapshot and looks
//!    `(version, tiling)` up in the hot-tiling cache; a hit bypasses the
//!    engine entirely and returns the stored reply bytes. Any write
//!    advances the version, so epoch/version advance *is* the
//!    invalidation.
//! 3. **Engine** — on a miss, whatever remains of the request's deadline
//!    budget is handed to the engine as a `BrowseRequest` deadline. The
//!    engine checks the budget once before it starts. Past that check a
//!    tiling on a sweep-capable estimator is answered by the sweep, which
//!    runs to completion on one thread; any other browse takes the
//!    per-tile loop, which polls the budget before every tile and turns
//!    an overrun into per-tile partial answers (`status:"degraded"`),
//!    never a panic.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use euler_browse::{run_browse, BrowseRequest, BrowseSession};
use euler_grid::{GridRect, Tiling};
use euler_metrics::Counter;

use crate::cache::{CacheKey, CacheStats, TilingCache};
use crate::json::Json;
use crate::proto::{BrowseParams, BrowseReply, ProtoError, Request, Response, ShedReason};
use crate::tenant::{ServeConfig, TenantRegistry, TenantSnapshot};

/// The multi-tenant serving core over one browse session.
pub struct ServeCore {
    session: Arc<dyn BrowseSession>,
    config: ServeConfig,
    cache: TilingCache,
    tenants: TenantRegistry,
    engine_dispatches: Counter,
    shutdown: AtomicBool,
    in_flight_ops: AtomicUsize,
}

/// RAII guard counting one request through [`ServeCore::handle`]; the
/// graceful-shutdown drain waits for the count to reach zero before the
/// session's WAL is synced and the server exits.
pub struct OpGuard<'a> {
    core: &'a ServeCore,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.core.in_flight_ops.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ServeCore {
    /// Wraps `session` with admission control and caching under
    /// `config`.
    pub fn new(session: Arc<dyn BrowseSession>, config: ServeConfig) -> Arc<ServeCore> {
        let cache = TilingCache::new(config.cache_capacity);
        Arc::new(ServeCore {
            session,
            config,
            cache,
            tenants: TenantRegistry::new(),
            engine_dispatches: Counter::new(),
            shutdown: AtomicBool::new(false),
            in_flight_ops: AtomicUsize::new(0),
        })
    }

    /// The wrapped session.
    pub fn session(&self) -> &Arc<dyn BrowseSession> {
        &self.session
    }

    /// The admission configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Engine dispatches so far (browses that were *not* cache hits) —
    /// the counter the cache-bypass tests verify against.
    pub fn engine_dispatches(&self) -> u64 {
        self.engine_dispatches.get()
    }

    /// Hot-tiling cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-tenant counters, sorted by tenant name.
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants.snapshots()
    }

    /// True once a `shutdown` request has been served.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Raises the shutdown flag directly — what a `shutdown` request does
    /// over the wire, for hosts tearing the server down themselves.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Begins one tracked request; hold the guard across the whole
    /// request–response cycle (response write included). The graceful
    /// shutdown drain waits for [`ServeCore::in_flight_ops`] to reach
    /// zero before syncing the session and letting the listener exit.
    pub fn begin_op(&self) -> OpGuard<'_> {
        self.in_flight_ops.fetch_add(1, Ordering::AcqRel);
        OpGuard { core: self }
    }

    /// Requests currently tracked by an [`OpGuard`].
    pub fn in_flight_ops(&self) -> usize {
        self.in_flight_ops.load(Ordering::Acquire)
    }

    /// Parses and serves one protocol line.
    pub fn handle_line(&self, line: &str) -> Response {
        match Request::parse(line) {
            Ok(req) => self.handle(&req),
            Err(e) => Response::Error(e),
        }
    }

    /// Serves one request.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Browse(params) => self.browse(params),
            Request::Stats { tenant } => Response::Stats(self.stats_json(tenant)),
            Request::Insert { rect, .. } => match self.session.try_insert(rect) {
                Ok(version) => Response::Ack {
                    op: "insert",
                    version: Some(version),
                },
                Err(e) => Response::Error(ProtoError(format!("insert failed: {e}"))),
            },
            Request::Remove { rect, .. } => match self.session.try_remove(rect) {
                Ok(version) => Response::Ack {
                    op: "remove",
                    version: Some(version),
                },
                Err(e) => Response::Error(ProtoError(format!("remove failed: {e}"))),
            },
            Request::Ping { .. } => Response::Ack {
                op: "ping",
                version: None,
            },
            Request::Checkpoint { .. } => match self.session.checkpoint() {
                Ok(at) => Response::Ack {
                    op: "checkpoint",
                    version: at.map(|(_, version)| version),
                },
                Err(e) => Response::Error(ProtoError(format!("checkpoint failed: {e}"))),
            },
            Request::Shutdown { .. } => {
                self.shutdown.store(true, Ordering::Release);
                Response::Ack {
                    op: "shutdown",
                    version: None,
                }
            }
        }
    }

    fn browse(&self, params: &BrowseParams) -> Response {
        let tenant = self.tenants.tenant(&params.tenant);
        let admitted_at = Instant::now();

        // Admission: bounded in-flight slots per tenant. The guard frees
        // the slot on every exit path.
        let Some(_slot) = tenant.try_admit(self.config.queue_capacity) else {
            tenant.record_shed_queue();
            return Response::Shed {
                reason: ShedReason::QueueFull,
            };
        };

        let tiling = match self.build_tiling(params) {
            Ok(t) => t,
            Err(e) => return Response::Error(e),
        };

        let budget = params
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(self.config.default_deadline)
            .min(self.config.max_deadline);

        // Pin once: the stamp, the cache key and the answer all refer to
        // this exact snapshot.
        let pinned = self.session.pin_session();
        let key = CacheKey::new(pinned.version(), &tiling);
        if let Some((result, counts_json)) = self.cache.get(&key) {
            tenant.record_admitted();
            tenant.record_cache_hit();
            tenant.record_latency(admitted_at.elapsed());
            return Response::Browse(BrowseReply {
                epoch: pinned.epoch(),
                version: pinned.version(),
                cache_hit: true,
                result,
                counts_json,
            });
        }

        // Whatever the admission path consumed comes out of the budget;
        // a spent budget sheds here instead of dispatching a doomed run.
        let spent = admitted_at.elapsed();
        if spent >= budget {
            tenant.record_shed_budget();
            return Response::Shed {
                reason: ShedReason::BudgetExhausted,
            };
        }

        let mut breq = BrowseRequest::new().deadline(budget - spent);
        if let Some(mega) = params.mega_threshold {
            breq = breq.mega_threshold(mega);
        }

        self.engine_dispatches.incr();
        let result = Arc::new(run_browse(
            pinned.estimator(),
            self.session.recorder(),
            &tiling,
            &breq,
        ));
        tenant.record_admitted();
        // Encode once, here: a later hit on this key reuses the bytes.
        let reply = BrowseReply::new(pinned.epoch(), pinned.version(), false, result);
        if reply.result.is_complete() {
            self.cache
                .insert(key, reply.result.clone(), reply.counts_json.clone());
        } else {
            tenant.record_degraded();
        }
        tenant.record_latency(admitted_at.elapsed());
        Response::Browse(reply)
    }

    fn build_tiling(&self, params: &BrowseParams) -> Result<Tiling, ProtoError> {
        if params.cols == 0 || params.rows == 0 {
            return Err(ProtoError("cols and rows must be positive".into()));
        }
        if params.cols.saturating_mul(params.rows) > self.config.max_tiles {
            return Err(ProtoError(format!(
                "tiling exceeds max_tiles={}",
                self.config.max_tiles
            )));
        }
        let grid = self.session.grid();
        let region = match params.region {
            None => grid.full(),
            Some((x0, y0, x1, y1)) => GridRect::new(x0, y0, x1, y1, grid)
                .map_err(|e| ProtoError(format!("invalid region: {e}")))?,
        };
        Tiling::new(region, params.cols, params.rows)
            .map_err(|e| ProtoError(format!("invalid tiling: {e}")))
    }

    /// The `stats` payload: requesting tenant's counters plus service,
    /// cache and session aggregates.
    pub fn stats_json(&self, tenant: &str) -> Json {
        let t = self.tenants.tenant(tenant).snapshot();
        let cache = self.cache.stats();
        let session = self.session.telemetry();
        Json::obj()
            .set("status", "ok")
            .set("op", "stats")
            .set("tenant", tenant_json(&t))
            .set(
                "cache",
                Json::obj()
                    .set("hits", cache.hits)
                    .set("misses", cache.misses)
                    .set("insertions", cache.insertions)
                    .set("evictions", cache.evictions)
                    .set("len", cache.len)
                    .set("capacity", self.cache.capacity()),
            )
            .set(
                "service",
                Json::obj()
                    .set("profile", self.session.session_name())
                    .set("objects", self.session.len())
                    .set("epoch", self.session.epoch())
                    .set("version", self.session.version())
                    .set("engine_dispatches", self.engine_dispatches.get())
                    .set("queries", session.queries)
                    .set("batches", session.batches),
            )
    }
}

fn tenant_json(t: &TenantSnapshot) -> Json {
    Json::obj()
        .set("name", t.name.as_str())
        .set("in_flight", t.in_flight)
        .set("admitted", t.admitted)
        .set("shed_queue", t.shed_queue)
        .set("shed_budget", t.shed_budget)
        .set("degraded", t.degraded)
        .set("cache_hits", t.cache_hits)
        .set(
            "latency_us",
            Json::obj()
                .set("count", t.latency.count())
                .set("p50", t.latency.p50().as_micros() as u64)
                .set("p95", t.latency.p95().as_micros() as u64)
                .set("p99", t.latency.p99().as_micros() as u64)
                .set("max", t.latency.max().as_micros() as u64),
        )
}
