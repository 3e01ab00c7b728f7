//! The in-memory preload: a session bulk-loaded with `with_objects` serves
//! what the same objects inserted one at a time serve — the same counts,
//! stamped with the same version N — and acks its first write as N + 1.

use std::sync::Arc;

use euler_browse::{BrowseSession, BrowsingService};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid};
use euler_serve::{Json, LocalClient, ServeConfig, ServeCore};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        16,
        16,
    )
    .unwrap()
}

fn objects() -> Vec<Rect> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..150)
        .map(|_| {
            let (x, y) = ((next() % 60) as f64, (next() % 60) as f64);
            let (w, h) = (0.5 + (next() % 16) as f64, 0.5 + (next() % 16) as f64);
            Rect::new(x, y, (x + w).min(64.0), (y + h).min(64.0)).unwrap()
        })
        .collect()
}

fn client(session: impl BrowseSession + 'static) -> LocalClient {
    LocalClient::new(ServeCore::new(Arc::new(session), ServeConfig::default()))
}

fn field<'a>(reply: &'a Json, key: &str) -> &'a Json {
    reply
        .get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {reply}"))
}

fn bulk_load_serves_like_inserts<const REFREEZE_ON_READ: bool>() {
    let rects = objects();
    let n = rects.len() as u64;
    let bulk = client(BrowsingService::<REFREEZE_ON_READ>::with_objects(
        grid(),
        &rects,
    ));
    let one_by_one = BrowsingService::<REFREEZE_ON_READ>::new(grid());
    for r in &rects {
        one_by_one.insert(r);
    }
    let one_by_one = client(one_by_one);
    assert_eq!(bulk.core().session().version(), n);
    assert_eq!(bulk.core().session().len(), n);

    for browse in [
        r#"{"tenant":"t","op":"browse","cols":4,"rows":4}"#,
        r#"{"tenant":"t","op":"browse","cols":16,"rows":16}"#,
        r#"{"tenant":"t","op":"browse","cols":3,"rows":2,"region":[2,1,14,15]}"#,
    ] {
        let (a, b) = (bulk.request_line(browse), one_by_one.request_line(browse));
        assert_eq!(field(&a, "status").as_str(), Some("ok"), "{a}");
        assert_eq!(field(&a, "version").as_u64(), Some(n));
        assert_eq!(field(&a, "version"), field(&b, "version"));
        assert_eq!(field(&a, "counts"), field(&b, "counts"), "{browse}");
    }

    let ack = bulk.request_line(r#"{"tenant":"t","op":"insert","rect":[1,1,9,9]}"#);
    assert_eq!(field(&ack, "version").as_u64(), Some(n + 1), "{ack}");
}

#[test]
fn a_bulk_loaded_frozen_session_serves_like_one_fed_by_inserts() {
    bulk_load_serves_like_inserts::<true>();
}

#[test]
fn a_bulk_loaded_dynamic_session_serves_like_one_fed_by_inserts() {
    bulk_load_serves_like_inserts::<false>();
}
