//! The traced run: the session `geobrowse serve` would build, driven in
//! process, with spans around the calls into each layer.
//!
//! Four legs share one schedule:
//! 1. traced — harness threads replay it as `Request::parse`, then
//!    `ServeCore::handle`, then encode, over a [`TracedSession`];
//! 2. plain — the first half again on an untraced session, timing only
//!    whole requests; against leg 1 this gives the tracing overhead;
//! 3. tcp — the first half again over TCP, through `Server::start` on an
//!    untraced session, for the end-to-end mean leg 1 is compared with;
//! 4. wire — pings over TCP to the same server, for the transport alone.

use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use spatial_histograms::browse::{BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService};
use spatial_histograms::core::LiveEulerHistogram;
use spatial_histograms::datagen::Dataset;
use spatial_histograms::geom::Rect;
use spatial_histograms::grid::{DataSpace, Grid};
use spatial_histograms::serve::{
    DurableSession, Request, Response, ServeConfig, ServeCore, Server,
};
use spatial_histograms::wal::DurableConfig;

use crate::check::{keep_mask, kept_answers, Outcome, Reference};
use crate::metrics::Report;
use crate::stats::{mean, percentile, sorted};
use crate::trace::{self, self_ns, Name, Span, TracedSession};
use crate::wire;
use crate::workload::{arrivals, dataset, schedule, Op, Profile, Rng, Scheduled, Workload, GRID};

pub fn grid() -> Grid {
    Grid::new(DataSpace::paper_world(), GRID.0, GRID.1).expect("the serving grid is valid")
}

/// A preloaded session as `geobrowse serve` builds it for `profile`.
pub struct Built {
    pub session: Arc<dyn BrowseSession>,
    /// The same session, when it was built traced.
    pub traced: Option<Arc<TracedSession>>,
    pub preload: Duration,
}

pub fn build(
    profile: Profile,
    rects: &[Rect],
    store: &Path,
    traced: bool,
) -> Result<Built, String> {
    let grid = grid();
    let (inner, live): (Arc<dyn BrowseSession>, _) = match profile {
        Profile::Frozen => {
            let live = Arc::new(LiveEulerHistogram::new(grid));
            (Arc::new(GeoBrowsingService::from_live(live.clone())), live)
        }
        Profile::Dynamic => {
            let live = Arc::new(LiveEulerHistogram::new(grid));
            (
                Arc::new(DynamicGeoBrowsingService::from_live(live.clone())),
                live,
            )
        }
        Profile::Durable => {
            let (s, _) = DurableSession::open(store, grid, DurableConfig::default())
                .map_err(|e| format!("cannot open durable store {}: {e}", store.display()))?;
            let live = s.store().live().clone();
            (Arc::new(s), live)
        }
    };
    let traced = traced.then(|| Arc::new(TracedSession::new(inner.clone(), live)));
    let session: Arc<dyn BrowseSession> = match &traced {
        Some(t) => t.clone(),
        None => inner,
    };
    let started = Instant::now();
    for r in rects {
        // The same calls `geobrowse serve` makes at boot.
        match profile {
            Profile::Durable => {
                session
                    .try_insert(r)
                    .map_err(|e| format!("preload failed: {e}"))?;
            }
            _ => session.insert(r),
        }
    }
    Ok(Built {
        session,
        traced,
        preload: started.elapsed(),
    })
}

/// One leg's per-stream outcomes, and the spans each replay thread recorded.
struct Replayed {
    outcomes: [Vec<Outcome>; 2],
    spans: Vec<Vec<Span>>,
}

fn replay(
    core: &ServeCore,
    streams: &[Vec<Scheduled>; 2],
    keep: &[Vec<bool>; 2],
    traced: bool,
) -> Replayed {
    let t0 = Instant::now() + Duration::from_millis(10);
    let per_stream: Vec<(Vec<Outcome>, Vec<Span>)> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                let (ops, keep) = (&streams[c], &keep[c]);
                s.spawn(move || {
                    let tenant = format!("c{c}");
                    let mut outcomes = Vec::with_capacity(ops.len());
                    for (i, op) in ops.iter().enumerate() {
                        let line = op.op.line(&tenant);
                        let due = t0 + op.at;
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let start = Instant::now();
                        let (resp, text) = if traced {
                            trace::set_request(((c as u64) << 32) | i as u64);
                            trace::span(Name::Request, || serve_line(core, &line, true))
                        } else {
                            serve_line(core, &line, false)
                        };
                        let end = Instant::now();
                        let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
                        outcomes.push(Outcome::from_response(
                            &resp,
                            text.len(),
                            ns(start),
                            ns(end),
                            keep[i],
                        ));
                    }
                    (outcomes, trace::take())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let mut it = per_stream.into_iter();
    let (a, b) = (
        it.next().expect("two streams"),
        it.next().expect("two streams"),
    );
    Replayed {
        outcomes: [a.0, b.0],
        spans: vec![a.1, b.1],
    }
}

/// Parse, handle and encode one line, as the server does per request.
fn serve_line(core: &ServeCore, line: &str, traced: bool) -> (Response, String) {
    fn step<R>(traced: bool, name: Name, f: impl FnOnce() -> R) -> R {
        if traced {
            trace::span(name, f)
        } else {
            f()
        }
    }
    let resp = match step(traced, Name::Parse, || Request::parse(line)) {
        Ok(r) => step(traced, Name::Handle, || core.handle(&r)),
        Err(e) => Response::Error(e),
    };
    let text = step(traced, Name::Encode, || resp.to_json().to_string());
    (resp, text)
}

/// The ops of `streams` due before `span`.
fn prefix(streams: &[Vec<Scheduled>; 2], span: Duration) -> [Vec<Scheduled>; 2] {
    streams
        .clone()
        .map(|s| s.into_iter().filter(|o| o.at < span).collect())
}

/// Per-span-kind samples, with each `handle` split into self time and the
/// estimate calls made under it.
#[derive(Default)]
struct Spans {
    of: std::collections::HashMap<&'static str, Vec<f64>>,
    handle_self: Vec<f64>,
    estimate_per_browse: Vec<f64>,
    calls_per_browse: Vec<f64>,
    estimate_total_ns: f64,
}

impl Spans {
    fn collect(threads: &[Vec<Span>]) -> Spans {
        let mut out = Spans::default();
        for spans in threads {
            let mut children: std::collections::HashMap<usize, Vec<(u64, u64)>> =
                Default::default();
            let mut estimates: std::collections::HashMap<usize, (u64, u64)> = Default::default();
            for s in spans {
                out.of
                    .entry(s.name.as_str())
                    .or_default()
                    .push(s.ns() as f64);
                let Some(p) = s.parent.filter(|&p| spans[p].name == Name::Handle) else {
                    continue;
                };
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
                if s.name == Name::Estimate {
                    let e = estimates.entry(p).or_default();
                    e.0 += s.ns();
                    e.1 += 1;
                    out.estimate_total_ns += s.ns() as f64;
                }
            }
            for (i, s) in spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == Name::Handle)
            {
                let kids = children
                    .get_mut(&i)
                    .map(Vec::as_mut_slice)
                    .unwrap_or_default();
                out.handle_self
                    .push(self_ns((s.start_ns, s.end_ns), kids) as f64);
                if let Some(&(ns, calls)) = estimates.get(&i) {
                    out.estimate_per_browse.push(ns as f64);
                    out.calls_per_browse.push(calls as f64);
                }
            }
        }
        out
    }

    fn samples(&self, name: Name) -> Vec<f64> {
        sorted(self.of.get(name.as_str()).cloned().unwrap_or_default())
    }
}

fn us(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e3)
}

/// What a traced run measured and checked.
pub struct Traced {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Every span as (thread, index on that thread, span); a span's
    /// `parent` is an index on the same thread.
    pub spans: Vec<(usize, usize, Span)>,
}

/// Runs the four legs for `w` and computes every per-layer metric.
/// `scale` divides the preloaded object count.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: usize,
    work: &Path,
) -> Result<Traced, String> {
    let mut report = Report::default();
    let csv = work.join("data.csv");
    dataset(w, seed, scale)
        .save_csv(&csv)
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let started = Instant::now();
    let data =
        Dataset::load_csv(&csv, w.name, DataSpace::paper_world()).map_err(|e| e.to_string())?;
    report.set("datagen.csv_load_s", Some(started.elapsed().as_secs_f64()));
    let rects = data.rects();

    let span = Duration::from_secs_f64(seconds);
    let streams = schedule(w, seed, span);
    let keep = keep_mask(w, &streams);

    // Leg 1: traced.
    let store = work.join("traced");
    let built = build(w.profile, rects, &store, true)?;
    let mut spans = trace::take();
    report.set("browse.preload_s", Some(built.preload.as_secs_f64()));
    let core = ServeCore::new(built.session.clone(), ServeConfig::default());
    let epoch0 = built.session.epoch();
    let leg1 = replay(&core, &streams, &keep, true);
    report.set(
        "core.refreezes",
        Some((built.session.epoch() - epoch0) as f64),
    );
    built
        .session
        .sync()
        .map_err(|e| format!("sync failed: {e}"))?;
    spans.extend(trace::take());
    let mut threads = leg1.spans;
    threads.push(spans);
    let sp = Spans::collect(&threads);

    let p = |xs: &[f64], q| us(percentile(xs, q));
    report.set("serve.parse_p50_us", p(&sp.samples(Name::Parse), 0.5));
    let encode = sp.samples(Name::Encode);
    report.set("serve.encode_p50_us", p(&encode, 0.5));
    report.set("serve.encode_p99_us", p(&encode, 0.99));
    let bytes: Vec<f64> = leg1
        .outcomes
        .iter()
        .flatten()
        .map(|o| o.reply_bytes as f64)
        .collect();
    report.set("serve.reply_bytes_mean", mean(&bytes));
    let handle_self = sorted(sp.handle_self.clone());
    report.set("serve.handle_self_p50_us", p(&handle_self, 0.5));
    report.set("serve.handle_self_p99_us", p(&handle_self, 0.99));
    let cache = core.cache_stats();
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    report.set("serve.cache_hit_ratio", Some(cache.hits as f64 / lookups));
    report.set("serve.cache_evictions", Some(cache.evictions as f64));
    let tenants = core.tenant_snapshots();
    let shed: u64 = tenants.iter().map(|t| t.shed_queue + t.shed_budget).sum();
    report.set("serve.shed", Some(shed as f64));
    report.set(
        "serve.degraded",
        Some(tenants.iter().map(|t| t.degraded).sum::<u64>() as f64),
    );
    let pin = sp.samples(Name::Pin);
    report.set("browse.pin_p50_us", p(&pin, 0.5));
    report.set("browse.pin_mean_us", us(mean(&pin)));
    let tele = built.session.telemetry();
    report.set(
        "engine.sweep_share",
        Some(tele.sweep_hits as f64 / tele.batches.max(1) as f64),
    );
    report.set("engine.degraded_sweeps", Some(tele.degraded_sweeps as f64));
    report.set(
        "engine.batch_mean_us",
        Some(tele.batch_latency.mean().as_nanos() as f64 / 1e3),
    );
    report.set("core.estimate_calls_per_browse", mean(&sp.calls_per_browse));
    let per_browse = sorted(sp.estimate_per_browse.clone());
    report.set("core.estimate_p50_us", p(&per_browse, 0.5));
    report.set("core.estimate_mean_us", us(mean(&per_browse)));
    report.set(
        "core.ns_per_tile",
        Some(sp.estimate_total_ns / tele.queries.max(1) as f64),
    );
    let traced = built.traced.as_ref().expect("leg 1 is traced");
    let deltas: Vec<f64> = traced.deltas().into_iter().map(|d| d as f64).collect();
    report.set("core.delta_len_mean", mean(&deltas));
    let writes = sp.samples(Name::Write);
    report.set("session.write_p50_us", p(&writes, 0.5));
    report.set("session.write_p99_us", p(&writes, 0.99));
    report.set("session.sync_us", us(mean(&sp.samples(Name::Sync))));
    let late: Vec<f64> = leg1
        .outcomes
        .iter()
        .zip(&streams)
        .flat_map(|(o, s)| {
            o.iter()
                .zip(s)
                .map(|(o, s)| o.sent_ns as f64 - s.at.as_nanos() as f64)
        })
        .collect();
    report.set(
        "loadgen.late_p99_ms",
        percentile(&sorted(late), 0.99).map(|v| v / 1e6),
    );

    // Correctness of the traced leg's answers.
    let mut reference = Reference::new(grid(), rects);
    reference.record(&streams, &leg1.outcomes)?;
    let (answers, mut failures) = kept_answers(&streams, &leg1.outcomes, &keep);
    failures.extend(reference.verify(&answers));
    let all: Vec<&Outcome> = leg1.outcomes.iter().flatten().collect();
    let failed = all.iter().filter(|o| !o.ok).count();

    drop(core);
    drop(built);
    let (segments, bytes, replayed) = if w.profile == Profile::Durable {
        let (segments, bytes) = store_files(&store)?;
        let (s, recovered) = DurableSession::open(&store, grid(), DurableConfig::default())
            .map_err(|e| format!("cannot reopen the durable store: {e}"))?;
        drop(s);
        if recovered.version != reference.last_version() {
            failures.push(format!(
                "reopened store recovered version {}, last acknowledged {}",
                recovered.version,
                reference.last_version()
            ));
        }
        (
            segments,
            bytes as f64 / reference.last_version().max(1) as f64,
            recovered.replayed,
        )
    } else {
        (0, 0.0, 0)
    };
    report.set("wal.segments", Some(segments as f64));
    report.set("wal.disk_bytes_per_write", Some(bytes));
    report.set("wal.replayed", Some(replayed as f64));

    // Leg 2: the first half again, untraced, in process.
    let half = prefix(&streams, span / 2);
    let half_none = half.clone().map(|s| vec![false; s.len()]);
    let plain = build(w.profile, rects, &work.join("plain"), false)?;
    let leg2 = replay(
        &ServeCore::new(plain.session.clone(), ServeConfig::default()),
        &half,
        &half_none,
        false,
    );
    drop(plain);
    // Leg 1's requests over the same first half: how long each took, and
    // its latency from when it was due.
    let (mut traced_service, mut traced_latency) = (Vec::new(), Vec::new());
    for (ops, outcomes) in half.iter().zip(&leg1.outcomes) {
        for (op, o) in ops.iter().zip(outcomes) {
            traced_service.extend(o.service_ns().map(|v| v as f64));
            traced_latency.extend(o.latency_ns(op.at.as_nanos() as u64).map(|v| v as f64));
        }
    }
    let plain_service: Vec<f64> = leg2
        .outcomes
        .iter()
        .flatten()
        .filter_map(|o| o.service_ns().map(|v| v as f64))
        .collect();
    report.set(
        "trace.overhead_frac",
        mean(&traced_service)
            .zip(mean(&plain_service))
            .map(|(t, p)| t / p - 1.0),
    );

    // Legs 3 and 4: over TCP through an in-process server.
    let tcp = build(w.profile, rects, &work.join("tcp"), false)?;
    let server = Server::start(
        ServeCore::new(tcp.session.clone(), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("cannot start the in-process server: {e}"))?;
    let leg3 = wire::drive(server.addr(), &half, &half_none).map_err(|e| e.to_string());
    let pings = [pings(seed, span / 4), Vec::new()];
    let leg4 = wire::drive(
        server.addr(),
        &pings,
        &[vec![false; pings[0].len()], Vec::new()],
    )
    .map_err(|e| e.to_string());
    server.core().begin_shutdown();
    drop(server);
    let (leg3, leg4) = (leg3?, leg4?);
    let e2e: Vec<f64> = leg3
        .iter()
        .zip(&half)
        .flat_map(|(o, s)| {
            o.iter()
                .zip(s)
                .filter_map(|(o, s)| o.latency_ns(s.at.as_nanos() as u64))
        })
        .map(|v| v as f64)
        .collect();
    let rtt = sorted(
        leg4[0]
            .iter()
            .filter_map(|o| o.service_ns().map(|v| v as f64))
            .collect(),
    );
    report.set("serve.wire_rtt_p50_us", p(&rtt, 0.5));
    report.set("serve.wire_rtt_p99_us", p(&rtt, 0.99));
    report.set(
        "trace.unattributed_frac",
        mean(&rtt)
            .zip(mean(&traced_latency))
            .zip(mean(&e2e))
            .map(|((r, t), e)| 1.0 - (r + t) / e),
    );

    let spans = threads
        .into_iter()
        .enumerate()
        .flat_map(|(t, v)| v.into_iter().enumerate().map(move |(i, s)| (t, i, s)))
        .collect();
    Ok(Traced {
        report,
        attempted: all.len(),
        failed,
        failures,
        spans,
    })
}

/// Pings at 500 per second over `span`, timed like workload ops.
fn pings(seed: u64, span: Duration) -> Vec<Scheduled> {
    arrivals(&mut Rng::new(seed), 500.0, span)
        .into_iter()
        .map(|at| Scheduled { at, op: Op::Ping })
        .collect()
}

/// WAL segment count and total bytes under a durable store directory.
pub fn store_files(dir: &Path) -> Result<(usize, u64), String> {
    let mut segments = 0;
    let mut bytes = 0;
    for entry in
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?
    {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("wal-") && name.ends_with(".log") {
            segments += 1;
        }
        bytes += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok((segments, bytes))
}
