//! The serve wire protocol: one JSON object per line, request in,
//! response out.
//!
//! Requests name a tenant and an op:
//!
//! ```text
//! {"tenant":"alice","op":"browse","cols":4,"rows":3}
//! {"tenant":"alice","op":"browse","cols":8,"rows":8,
//!  "region":[0,0,35,17],"deadline_ms":50}
//! {"tenant":"feed","op":"insert","rect":[10.0,10.0,12.0,11.0]}
//! {"tenant":"feed","op":"remove","rect":[10.0,10.0,12.0,11.0]}
//! {"tenant":"alice","op":"stats"}
//! {"tenant":"ops","op":"ping"}
//! {"tenant":"ops","op":"checkpoint"}
//! {"tenant":"ops","op":"shutdown"}
//! ```
//!
//! Responses carry a `status`: `ok` (complete answer), `degraded`
//! (partial answer — tiles in `unavailable` ran out of budget),
//! `shed` (refused before the engine: `queue_full` or
//! `budget_exhausted`; retry later), or `error` (malformed request).
//! Browse answers are stamped with the snapshot `epoch` and `version`
//! they were computed at, and `cache` says whether the engine was
//! bypassed.

use std::fmt::Write as _;
use std::sync::Arc;

use euler_browse::BrowseResult;
use euler_core::RelationCounts;
use euler_geom::Rect;

use crate::json::Json;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// A multi-tile browsing query.
    Browse(BrowseParams),
    /// Per-tenant and service counters.
    Stats {
        /// Requesting tenant.
        tenant: String,
    },
    /// Insert an object MBR (raw data-space coordinates).
    Insert {
        /// Requesting tenant.
        tenant: String,
        /// The MBR.
        rect: Rect,
    },
    /// Remove a previously inserted MBR.
    Remove {
        /// Requesting tenant.
        tenant: String,
        /// The MBR.
        rect: Rect,
    },
    /// Liveness probe.
    Ping {
        /// Requesting tenant.
        tenant: String,
    },
    /// Force a durability checkpoint (no-op ack on in-memory sessions).
    Checkpoint {
        /// Requesting tenant.
        tenant: String,
    },
    /// Ask the server to stop accepting connections.
    Shutdown {
        /// Requesting tenant.
        tenant: String,
    },
}

/// Parameters of a browse request.
#[derive(Debug, Clone)]
pub struct BrowseParams {
    /// Requesting tenant.
    pub tenant: String,
    /// Tiling columns.
    pub cols: usize,
    /// Tiling rows.
    pub rows: usize,
    /// Region as grid-line indexes `[x0,y0,x1,y1]` (`x1`/`y1` exclusive
    /// as a cell range); `None` browses the full grid.
    pub region: Option<(usize, usize, usize, usize)>,
    /// Budget override in milliseconds (clamped to the server max).
    pub deadline_ms: Option<u64>,
    /// Mega-hit advice threshold override.
    pub mega_threshold: Option<i64>,
}

/// A protocol-level parse failure (the connection survives; the client
/// gets `status:"error"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(msg: &str) -> ProtoError {
    ProtoError(msg.to_string())
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(&format!("field '{key}' must be a non-negative integer"))),
    }
}

fn field_rect(v: &Json) -> Result<Rect, ProtoError> {
    let arr = v
        .get("rect")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("field 'rect' must be [x0,y0,x1,y1]"))?;
    if arr.len() != 4 {
        return Err(bad("field 'rect' must have exactly 4 coordinates"));
    }
    let mut c = [0.0f64; 4];
    for (i, j) in arr.iter().enumerate() {
        c[i] = j
            .as_f64()
            .ok_or_else(|| bad("rect coordinates must be numbers"))?;
    }
    Rect::new(c[0], c[1], c[2], c[3]).map_err(|e| bad(&format!("invalid rect: {e}")))
}

impl Request {
    /// The tenant a request belongs to.
    pub fn tenant(&self) -> &str {
        match self {
            Request::Browse(p) => &p.tenant,
            Request::Stats { tenant }
            | Request::Insert { tenant, .. }
            | Request::Remove { tenant, .. }
            | Request::Ping { tenant }
            | Request::Checkpoint { tenant }
            | Request::Shutdown { tenant } => tenant,
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = crate::json::parse(line).map_err(|e| bad(&format!("invalid json: {e}")))?;
        Request::from_json(&v)
    }

    /// Interprets a parsed JSON object as a request.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("field 'tenant' (string) is required"))?;
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(bad("tenant must be 1..=64 characters"));
        }
        let tenant = tenant.to_string();
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("field 'op' (string) is required"))?;
        match op {
            "browse" => {
                let cols =
                    field_u64(v, "cols")?.ok_or_else(|| bad("browse requires 'cols'"))? as usize;
                let rows =
                    field_u64(v, "rows")?.ok_or_else(|| bad("browse requires 'rows'"))? as usize;
                let region = match v.get("region") {
                    None | Some(Json::Null) => None,
                    Some(j) => {
                        let arr = j
                            .as_array()
                            .ok_or_else(|| bad("'region' must be [x0,y0,x1,y1]"))?;
                        if arr.len() != 4 {
                            return Err(bad("'region' must have exactly 4 cells"));
                        }
                        let mut c = [0usize; 4];
                        for (i, item) in arr.iter().enumerate() {
                            c[i] = item
                                .as_u64()
                                .ok_or_else(|| bad("region cells must be non-negative integers"))?
                                as usize;
                        }
                        Some((c[0], c[1], c[2], c[3]))
                    }
                };
                Ok(Request::Browse(BrowseParams {
                    tenant,
                    cols,
                    rows,
                    region,
                    deadline_ms: field_u64(v, "deadline_ms")?,
                    mega_threshold: match v.get("mega_threshold") {
                        None | Some(Json::Null) => None,
                        Some(j) => Some(
                            j.as_i64()
                                .ok_or_else(|| bad("'mega_threshold' must be an integer"))?,
                        ),
                    },
                }))
            }
            "stats" => Ok(Request::Stats { tenant }),
            "insert" => Ok(Request::Insert {
                tenant,
                rect: field_rect(v)?,
            }),
            "remove" => Ok(Request::Remove {
                tenant,
                rect: field_rect(v)?,
            }),
            "ping" => Ok(Request::Ping { tenant }),
            "checkpoint" => Ok(Request::Checkpoint { tenant }),
            "shutdown" => Ok(Request::Shutdown { tenant }),
            other => Err(bad(&format!("unknown op '{other}'"))),
        }
    }

    /// Renders the request as a protocol line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Browse(p) => {
                let mut j = Json::obj()
                    .set("tenant", p.tenant.as_str())
                    .set("op", "browse")
                    .set("cols", p.cols)
                    .set("rows", p.rows);
                if let Some((x0, y0, x1, y1)) = p.region {
                    j = j.set(
                        "region",
                        Json::Arr(vec![x0.into(), y0.into(), x1.into(), y1.into()]),
                    );
                }
                if let Some(ms) = p.deadline_ms {
                    j = j.set("deadline_ms", ms);
                }
                if let Some(m) = p.mega_threshold {
                    j = j.set("mega_threshold", m);
                }
                j
            }
            Request::Stats { tenant } => Json::obj()
                .set("tenant", tenant.as_str())
                .set("op", "stats"),
            Request::Insert { tenant, rect } => Json::obj()
                .set("tenant", tenant.as_str())
                .set("op", "insert")
                .set("rect", rect_json(rect)),
            Request::Remove { tenant, rect } => Json::obj()
                .set("tenant", tenant.as_str())
                .set("op", "remove")
                .set("rect", rect_json(rect)),
            Request::Ping { tenant } => {
                Json::obj().set("tenant", tenant.as_str()).set("op", "ping")
            }
            Request::Checkpoint { tenant } => Json::obj()
                .set("tenant", tenant.as_str())
                .set("op", "checkpoint"),
            Request::Shutdown { tenant } => Json::obj()
                .set("tenant", tenant.as_str())
                .set("op", "shutdown"),
        }
    }
}

fn rect_json(rect: &Rect) -> Json {
    Json::Arr(vec![
        rect.xlo().into(),
        rect.ylo().into(),
        rect.xhi().into(),
        rect.yhi().into(),
    ])
}

/// Why a request was refused before reaching the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant already holds `queue_capacity` in-flight requests.
    QueueFull,
    /// The request's deadline budget was spent before dispatch.
    BudgetExhausted,
}

impl ShedReason {
    /// The wire label.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// A complete or partial browse answer with its provenance stamps.
#[derive(Debug, Clone)]
pub struct BrowseReply {
    /// Publish epoch of the answering snapshot.
    pub epoch: u64,
    /// Write-log version of the answering snapshot (the cache stamp).
    pub version: u64,
    /// True when the answer came from the hot-tiling cache.
    pub cache_hit: bool,
    /// The answer grid.
    pub result: Arc<BrowseResult>,
    /// `result`'s counts as the wire's `counts` array, encoded once when
    /// the answer was computed and shared with its cache slot.
    pub(crate) counts_json: Arc<str>,
}

impl BrowseReply {
    /// A reply for `result`, encoding its counts for the wire.
    pub fn new(
        epoch: u64,
        version: u64,
        cache_hit: bool,
        result: Arc<BrowseResult>,
    ) -> BrowseReply {
        let counts_json = encode_counts(result.counts());
        BrowseReply {
            epoch,
            version,
            cache_hit,
            result,
            counts_json,
        }
    }

    /// Appends the reply line: the short header, then the stored
    /// `counts` array, then `unavailable` when the answer is partial.
    fn write_line(&self, out: &mut String) {
        let complete = self.result.is_complete();
        out.push_str(if complete {
            r#"{"status":"ok","op":"browse","epoch":"#
        } else {
            r#"{"status":"degraded","op":"browse","epoch":"#
        });
        push_u64(out, self.epoch);
        out.push_str(r#","version":"#);
        push_u64(out, self.version);
        out.push_str(if self.cache_hit {
            r#","cache":"hit","cols":"#
        } else {
            r#","cache":"miss","cols":"#
        });
        push_u64(out, self.result.tiling().cols() as u64);
        out.push_str(r#","rows":"#);
        push_u64(out, self.result.tiling().rows() as u64);
        out.push_str(r#","counts":"#);
        out.push_str(&self.counts_json);
        if !complete {
            out.push_str(r#","unavailable":["#);
            for (i, &tile) in self.result.unavailable().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_u64(out, tile as u64);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// The `counts` array: one `[disjoint,contains,contained,overlaps]` per
/// tile, in row-major order.
fn encode_counts(counts: &[RelationCounts]) -> Arc<str> {
    // Small counts take ~12 bytes a tile; the guess only saves regrowth.
    let mut out = String::with_capacity(2 + counts.len() * 12);
    out.push('[');
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_i64(&mut out, c.disjoint);
        out.push(',');
        push_i64(&mut out, c.contains);
        out.push(',');
        push_i64(&mut out, c.contained);
        out.push(',');
        push_i64(&mut out, c.overlaps);
        out.push(']');
    }
    out.push(']');
    out.into()
}

/// Appends `v` in decimal. Below 2^53 in magnitude this is exactly what
/// the `Json` tree prints; beyond, the tree rounds through `f64` and this
/// writes every digit, which parses to the same `f64`.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A browse answer (`status:"ok"` when complete, `"degraded"` when
    /// tiles are listed in `unavailable`).
    Browse(BrowseReply),
    /// The request was refused before the engine; retry later.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// Stats payload (already rendered — see `ServeCore::stats_json`).
    Stats(Json),
    /// A non-browse op succeeded; `version` stamps write acks.
    Ack {
        /// Which op.
        op: &'static str,
        /// Post-op write-log version, for writers.
        version: Option<u64>,
    },
    /// The request was malformed or invalid.
    Error(ProtoError),
}

impl Response {
    /// Appends the response as one protocol line (no trailing newline).
    /// A browse reply is written field by field around its stored
    /// `counts` array; the other responses are small and go through the
    /// `Json` tree. The bytes are those of `to_json().to_string()`, except
    /// that a count of magnitude 2^53 or more keeps all its digits (the
    /// tree rounds it through `f64`; both parse to the same value).
    pub fn write_line(&self, out: &mut String) {
        match self {
            Response::Browse(reply) => reply.write_line(out),
            Response::Stats(payload) => {
                let _ = write!(out, "{payload}");
            }
            other => {
                let _ = write!(out, "{}", other.to_json());
            }
        }
    }

    /// Renders the response as a `Json` tree: the encoder
    /// [`Response::write_line`] is tested against.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Browse(reply) => {
                let status = if reply.result.is_complete() {
                    "ok"
                } else {
                    "degraded"
                };
                let counts: Vec<Json> = reply
                    .result
                    .counts()
                    .iter()
                    .map(|c: &RelationCounts| {
                        Json::Arr(vec![
                            c.disjoint.into(),
                            c.contains.into(),
                            c.contained.into(),
                            c.overlaps.into(),
                        ])
                    })
                    .collect();
                let mut j = Json::obj()
                    .set("status", status)
                    .set("op", "browse")
                    .set("epoch", reply.epoch)
                    .set("version", reply.version)
                    .set("cache", if reply.cache_hit { "hit" } else { "miss" })
                    .set("cols", reply.result.tiling().cols())
                    .set("rows", reply.result.tiling().rows())
                    .set("counts", Json::Arr(counts));
                if !reply.result.is_complete() {
                    j = j.set(
                        "unavailable",
                        Json::Arr(
                            reply
                                .result
                                .unavailable()
                                .iter()
                                .map(|&i| i.into())
                                .collect(),
                        ),
                    );
                }
                j
            }
            Response::Shed { reason } => Json::obj()
                .set("status", "shed")
                .set("reason", reason.as_str()),
            Response::Stats(payload) => payload.clone(),
            Response::Ack { op, version } => {
                let mut j = Json::obj().set("status", "ok").set("op", *op);
                if let Some(v) = version {
                    j = j.set("version", *v);
                }
                j
            }
            Response::Error(e) => Json::obj()
                .set("status", "error")
                .set("error", e.0.as_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let req = Request::Browse(BrowseParams {
            tenant: "alice".into(),
            cols: 4,
            rows: 3,
            region: Some((1, 2, 6, 7)),
            deadline_ms: Some(50),
            mega_threshold: Some(1000),
        });
        let line = req.to_json().to_string();
        let back = Request::parse(&line).unwrap();
        match back {
            Request::Browse(p) => {
                assert_eq!(p.tenant, "alice");
                assert_eq!((p.cols, p.rows), (4, 3));
                assert_eq!(p.region, Some((1, 2, 6, 7)));
                assert_eq!(p.deadline_ms, Some(50));
                assert_eq!(p.mega_threshold, Some(1000));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn write_ops_carry_raw_rects() {
        let line = r#"{"tenant":"feed","op":"insert","rect":[10.0,10.5,12.25,11.0]}"#;
        match Request::parse(line).unwrap() {
            Request::Insert { tenant, rect } => {
                assert_eq!(tenant, "feed");
                assert_eq!(
                    (rect.xlo(), rect.ylo(), rect.xhi(), rect.yhi()),
                    (10.0, 10.5, 12.25, 11.0)
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("nonsense", "invalid json"),
            (r#"{"op":"browse"}"#, "tenant"),
            (r#"{"tenant":"a","op":"warp"}"#, "unknown op"),
            (r#"{"tenant":"a","op":"browse","rows":3}"#, "cols"),
            (r#"{"tenant":"a","op":"insert","rect":[1,2,3]}"#, "rect"),
            (r#"{"tenant":"a","op":"browse","cols":-2,"rows":3}"#, "cols"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{line}: expected {needle:?} in {:?}",
                err.0
            );
        }
    }

    #[test]
    fn shed_and_error_render_structured_statuses() {
        let shed = Response::Shed {
            reason: ShedReason::QueueFull,
        }
        .to_json();
        assert_eq!(shed.get("status").unwrap().as_str(), Some("shed"));
        assert_eq!(shed.get("reason").unwrap().as_str(), Some("queue_full"));

        let err = Response::Error(ProtoError("nope".into())).to_json();
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(err.get("error").unwrap().as_str(), Some("nope"));
    }
}
