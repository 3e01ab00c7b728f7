//! Hot-tiling cache laws, counter-verified against the engine-dispatch
//! counter: a repeat `(version, tiling)` browse is a bit-identical cache
//! hit that bypasses the engine; any write advances the version and
//! invalidates; residency stays bounded under a churning writer.

use std::sync::Arc;

use euler_browse::{BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid};
use euler_serve::{LocalClient, Request, Response, ServeConfig, ServeCore};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        16,
        16,
    )
    .unwrap()
}

fn browse(tenant: &str, cols: usize, rows: usize) -> Request {
    Request::parse(&format!(
        r#"{{"tenant":"{tenant}","op":"browse","cols":{cols},"rows":{rows}}}"#
    ))
    .unwrap()
}

fn insert(tenant: &str, lo: f64) -> Request {
    Request::parse(&format!(
        r#"{{"tenant":"{tenant}","op":"insert","rect":[{lo},{lo},{},{}]}}"#,
        lo + 9.0,
        lo + 5.0,
    ))
    .unwrap()
}

fn reply(resp: Response) -> euler_serve::BrowseReply {
    match resp {
        Response::Browse(r) => r,
        other => panic!("expected a browse reply, got {other:?}"),
    }
}

fn seeded_dynamic() -> Arc<DynamicGeoBrowsingService> {
    let service = DynamicGeoBrowsingService::new(grid());
    for i in 0..12 {
        let lo = (i * 4) as f64 % 48.0;
        service.insert(&Rect::new(lo, lo / 2.0, lo + 9.5, lo / 2.0 + 6.0).unwrap());
    }
    Arc::new(service)
}

#[test]
fn repeat_browse_is_a_bit_identical_hit_that_bypasses_the_engine() {
    let core = ServeCore::new(seeded_dynamic(), ServeConfig::default());
    let client = LocalClient::new(core.clone());

    let first = reply(client.request(&browse("alice", 4, 4)));
    assert!(!first.cache_hit);
    assert!(first.result.is_complete());
    let dispatches = core.engine_dispatches();
    assert_eq!(dispatches, 1);

    // Same (version, tiling) from another tenant: answered from the
    // cache, engine untouched.
    let second = reply(client.request(&browse("bob", 4, 4)));
    assert!(second.cache_hit);
    assert_eq!(
        core.engine_dispatches(),
        dispatches,
        "a cache hit must bypass the engine"
    );
    assert_eq!((second.epoch, second.version), (first.epoch, first.version));
    assert_eq!(
        second.result.counts(),
        first.result.counts(),
        "a cache hit must be bit-identical to the computed answer"
    );

    let stats = core.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    let tenants = core.tenant_snapshots();
    assert_eq!(tenants.len(), 2);
    assert_eq!(tenants[0].name, "alice");
    assert_eq!(tenants[0].cache_hits, 0);
    assert_eq!(tenants[1].name, "bob");
    assert_eq!(tenants[1].cache_hits, 1);
}

#[test]
fn a_write_advances_the_version_and_invalidates_every_tiling() {
    let core = ServeCore::new(seeded_dynamic(), ServeConfig::default());
    let client = LocalClient::new(core.clone());

    let before = reply(client.request(&browse("alice", 4, 4)));
    assert!(reply(client.request(&browse("alice", 4, 4))).cache_hit);

    // One insert: the version advances, so the same tiling misses and is
    // recomputed against the new snapshot.
    match client.request(&insert("feed", 20.0)) {
        Response::Ack {
            op: "insert",
            version,
        } => {
            assert_eq!(version, Some(before.version + 1));
        }
        other => panic!("expected an insert ack, got {other:?}"),
    }
    let after = reply(client.request(&browse("alice", 4, 4)));
    assert!(
        !after.cache_hit,
        "a write must invalidate the cached tiling"
    );
    assert_eq!(after.version, before.version + 1);
    assert_eq!(core.engine_dispatches(), 2);
    assert_ne!(
        after.result.counts(),
        before.result.counts(),
        "the inserted object must be visible in the recomputed answer"
    );
}

#[test]
fn refreeze_advances_the_epoch_and_the_cache_misses() {
    // Frozen profile: pinning refreezes, so a write advances BOTH stamps.
    let service = GeoBrowsingService::new(grid());
    service.insert(&Rect::new(4.0, 4.0, 20.0, 16.0).unwrap());
    let core = ServeCore::new(Arc::new(service), ServeConfig::default());
    let client = LocalClient::new(core.clone());

    let before = reply(client.request(&browse("alice", 4, 4)));
    assert!(reply(client.request(&browse("alice", 4, 4))).cache_hit);

    client.request(&insert("feed", 30.0));
    let after = reply(client.request(&browse("alice", 4, 4)));
    assert!(!after.cache_hit);
    assert!(after.epoch > before.epoch, "refreeze publishes a new epoch");
    assert!(after.version > before.version);
}

#[test]
fn residency_stays_bounded_under_a_churning_writer() {
    let session = seeded_dynamic();
    let config = ServeConfig {
        cache_capacity: 4,
        ..ServeConfig::default()
    };
    let core = ServeCore::new(session, config);
    let client = LocalClient::new(core.clone());

    // Every round writes (invalidating all prior keys) then browses three
    // tilings: the cache churns through fresh keys forever but residency
    // never exceeds capacity.
    for round in 0..25 {
        client.request(&insert("feed", (round % 40) as f64));
        for (cols, rows) in [(2, 2), (3, 3), (4, 4)] {
            let r = reply(client.request(&browse("alice", cols, rows)));
            assert!(!r.cache_hit, "churning writer leaves nothing to hit");
        }
        let stats = core.cache_stats();
        assert!(
            stats.len <= 4,
            "round {round}: residency {} exceeds capacity 4",
            stats.len
        );
    }
    let stats = core.cache_stats();
    assert!(stats.evictions > 0, "churn must have forced evictions");
    assert_eq!(stats.hits, 0);

    // Once the writer stops, the LRU keeps the hot tiling resident.
    assert!(!reply(client.request(&browse("alice", 5, 5))).cache_hit);
    assert!(reply(client.request(&browse("alice", 5, 5))).cache_hit);
}
