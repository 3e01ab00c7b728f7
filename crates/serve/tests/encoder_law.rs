//! The reply encoder law: `Response::write_line`, the encoder the server
//! writes with, puts out the same line as the `Json` tree oracle
//! (`to_json().to_string()`) for every reply shape, and a cache hit,
//! served from stored bytes, differs from a fresh miss of the same pinned
//! version only in `"cache"`.

use std::sync::Arc;

use euler_browse::{BrowseResult, BrowseSession, DynamicGeoBrowsingService};
use euler_core::RelationCounts;
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, Tiling};
use euler_serve::{
    parse_json, BrowseReply, ProtoError, Request, Response, ServeConfig, ServeCore, ShedReason,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        16,
        16,
    )
    .unwrap()
}

fn seeded_core() -> Arc<ServeCore> {
    let service = DynamicGeoBrowsingService::new(grid());
    for i in 0..12 {
        let lo = (i * 4) as f64 % 48.0;
        service.insert(&Rect::new(lo, lo / 2.0, lo + 9.5, lo / 2.0 + 6.0).unwrap());
    }
    ServeCore::new(Arc::new(service), ServeConfig::default())
}

fn line(resp: &Response) -> String {
    let mut out = String::new();
    resp.write_line(&mut out);
    out
}

fn request(line: &str) -> Request {
    Request::parse(line).unwrap()
}

/// Asserts the encoder's bytes equal the oracle's, and returns them.
fn assert_encodes_like_the_oracle(resp: &Response) -> String {
    let direct = line(resp);
    assert_eq!(direct, resp.to_json().to_string(), "{resp:?}");
    direct
}

#[test]
fn every_reply_shape_encodes_like_the_tree() {
    let core = seeded_core();
    let browse = request(r#"{"tenant":"t","op":"browse","cols":4,"rows":3}"#);

    // Complete, as a miss and as a hit.
    let miss = core.handle(&browse);
    let hit = core.handle(&browse);
    match (&miss, &hit) {
        (Response::Browse(m), Response::Browse(h)) => assert!(!m.cache_hit && h.cache_hit),
        other => panic!("expected two browse replies, got {other:?}"),
    }
    let miss_line = assert_encodes_like_the_oracle(&miss);
    assert!(miss_line.starts_with(r#"{"status":"ok","op":"browse","epoch":"#));
    assert_encodes_like_the_oracle(&hit);

    // Degraded, with an `unavailable` list.
    let tiling = Tiling::new(grid().full(), 3, 2).unwrap();
    let counts = (0..6)
        .map(|i| RelationCounts::new(i, -i, 2 * i, 7))
        .collect::<Vec<_>>();
    let partial = BrowseResult::with_unavailable(tiling, counts, vec![4, 1]);
    let degraded = Response::Browse(BrowseReply::new(3, 17, false, Arc::new(partial)));
    let degraded_line = assert_encodes_like_the_oracle(&degraded);
    assert!(degraded_line.contains(r#""status":"degraded""#));
    assert!(degraded_line.ends_with(r#","unavailable":[1,4]}"#));

    // Both shed reasons.
    for reason in [ShedReason::QueueFull, ShedReason::BudgetExhausted] {
        assert_encodes_like_the_oracle(&Response::Shed { reason });
    }

    // An ack with and without `version`.
    for version in [Some(42), None] {
        assert_encodes_like_the_oracle(&Response::Ack {
            op: "insert",
            version,
        });
    }

    // An error whose message needs escaping.
    let err = Response::Error(ProtoError("bad \"op\" \\ here\n\ttab \u{1} é".into()));
    let err_line = assert_encodes_like_the_oracle(&err);
    assert!(err_line.contains(r#"bad \"op\" \\ here\n\ttab \u0001 é"#));

    // Stats.
    let stats = core.handle(&request(r#"{"tenant":"t","op":"stats"}"#));
    assert!(matches!(stats, Response::Stats(_)));
    assert_encodes_like_the_oracle(&stats);
}

/// A count drawn to reach the encoder's corners: small, negative, and
/// past 2^53 where the tree rounds through `f64`.
fn count(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(-1_000..=1_000i64),
        1 => rng.gen_range(0..=9i64),
        2 => rng.gen_range(-(1i64 << 53)..=(1i64 << 53)),
        3 => rng.gen_range((1i64 << 53)..=i64::MAX),
        4 => rng.gen_range(i64::MIN..=-(1i64 << 53)),
        _ => [0, i64::MIN, i64::MAX, 1 << 53, -(1 << 53)][rng.gen_range(0..5usize)],
    }
}

#[test]
fn random_counts_encode_to_the_same_json() {
    // Seeded and replayable: EULER_ENCODER_SEED overrides the seed.
    let seed = std::env::var("EULER_ENCODER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE4C0);
    let mut rng = StdRng::seed_from_u64(seed);
    let full = grid().full();
    let exact = 1i64 << 53;
    for trial in 0..300 {
        let (cols, rows) = (rng.gen_range(1..=16usize), rng.gen_range(1..=16usize));
        let tiling = Tiling::new(full, cols, rows).unwrap();
        let counts: Vec<RelationCounts> = (0..tiling.len())
            .map(|_| {
                let mut c = || count(&mut rng);
                RelationCounts::new(c(), c(), c(), c())
            })
            .collect();
        let unavailable = if rng.gen_bool(0.3) {
            vec![rng.gen_range(0..tiling.len())]
        } else {
            Vec::new()
        };
        let small = counts.iter().all(|c| {
            [c.disjoint, c.contains, c.contained, c.overlaps]
                .iter()
                .all(|v| v.unsigned_abs() < exact as u64)
        });
        let result = BrowseResult::with_unavailable(tiling, counts, unavailable);
        let resp = Response::Browse(BrowseReply::new(
            rng.gen_range(1..=1_000u64),
            rng.gen_range(0..=1_000_000u64),
            rng.gen_bool(0.5),
            Arc::new(result),
        ));
        let (direct, oracle) = (line(&resp), resp.to_json().to_string());
        assert_eq!(
            parse_json(&direct).unwrap(),
            parse_json(&oracle).unwrap(),
            "seed {seed} trial {trial}"
        );
        if small {
            assert_eq!(direct, oracle, "seed {seed} trial {trial}");
        }
    }
}

#[test]
fn a_hit_is_a_fresh_miss_but_for_the_cache_field() {
    let core = seeded_core();
    // A second core over the same session: its first browse is a fresh
    // miss at the same pinned version.
    let fresh = ServeCore::new(core.session().clone(), ServeConfig::default());
    for browse in [
        r#"{"tenant":"t","op":"browse","cols":4,"rows":4}"#,
        r#"{"tenant":"t","op":"browse","cols":3,"rows":5,"region":[0,0,15,15]}"#,
        r#"{"tenant":"t","op":"browse","cols":16,"rows":16}"#,
    ] {
        let browse = request(browse);
        core.handle(&browse);
        let hit = core.handle(&browse);
        let miss = fresh.handle(&browse);
        match (&hit, &miss) {
            (Response::Browse(h), Response::Browse(m)) => {
                assert!(h.cache_hit && !m.cache_hit);
                assert_eq!(h.version, m.version);
            }
            other => panic!("expected two browse replies, got {other:?}"),
        }
        assert_eq!(
            line(&hit).replacen(r#""cache":"hit""#, r#""cache":"miss""#, 1),
            line(&miss)
        );
    }
}
