//! The object bound at every front door: a live histogram holds at most
//! `MAX_OBJECTS` (`i32::MAX`) objects, so its 32-bit cube cells never
//! overflow. Images crafted at the bound stand in for 2³¹ writes.

use std::sync::Arc;

use euler_browse::{BrowseSession, DynamicGeoBrowsingService};
use euler_core::{EulerHistogram, MAX_OBJECTS};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid};
use euler_serve::{DurableSession, Json, ServeConfig, ServeCore};
use euler_wal::{DurableConfig, DurableLive, WalError};

fn grid() -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()),
        16,
        16,
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("euler-object-bound-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn answer(core: &ServeCore, line: &str) -> Json {
    let mut out = String::new();
    core.handle_line(line).write_line(&mut out);
    euler_serve::parse_json(out.trim_end()).expect("one JSON response line")
}

fn status(json: &Json) -> &str {
    json.get("status").and_then(Json::as_str).unwrap_or("")
}

/// A format-2 persist image over `grid()` whose buckets are all zero and
/// whose header states `object_count` objects: a crafted checkpoint,
/// checksummed as the codec does (header words mixed into the seed, then
/// one FNV-1a step per bucket, here a single zero run).
fn crafted_image(object_count: u64) -> Vec<u8> {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let (ew, eh) = grid().euler_dims();
    let buckets = (ew * eh) as u64;
    let bounds = [0.0f64, 0.0, 64.0, 64.0].map(f64::to_bits);
    let words = [16, 16, object_count, buckets];
    let mut image = b"EULH".to_vec();
    image.extend_from_slice(&2u32.to_le_bytes());
    let mut checksum = 0xE01E_5EED_0BAD_F00Du64;
    for (i, w) in bounds.into_iter().chain(words).enumerate() {
        image.extend_from_slice(&w.to_le_bytes());
        checksum = checksum.wrapping_add(w.rotate_left(i as u32 * 7 + 1));
    }
    // Zero-run marker, then the run length as a varint.
    image.push(0);
    let mut run = buckets;
    while run >= 0x80 {
        image.push(run as u8 | 0x80);
        run >>= 7;
    }
    image.push(run as u8);
    checksum = checksum.wrapping_mul(FNV_PRIME.wrapping_pow(buckets as u32));
    image.extend_from_slice(&checksum.to_le_bytes());
    image
}

/// A session preloaded from an image at the object bound refuses the
/// next insert with a structured error — in memory as `InvalidInput`,
/// over `handle_line` as `insert failed` — changes nothing, and takes a
/// remove and then one more insert. An image one past the bound does
/// not decode.
#[test]
fn an_insert_at_the_object_bound_is_a_structured_error() {
    let at_bound = EulerHistogram::from_bytes(&crafted_image(MAX_OBJECTS)).unwrap();
    assert_eq!(at_bound.object_count(), i32::MAX as u64);
    assert!(EulerHistogram::from_bytes(&crafted_image(MAX_OBJECTS + 1)).is_err());

    let rect = Rect::new(1.0, 1.0, 2.0, 2.0).unwrap();
    let session = Arc::new(DynamicGeoBrowsingService::preloaded(at_bound));
    let err = session.try_insert(&rect).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    session.insert(&rect);
    assert_eq!(
        (session.len(), session.version()),
        (MAX_OBJECTS, MAX_OBJECTS)
    );

    let core = ServeCore::new(session, ServeConfig::default());
    let json = answer(&core, INSERT);
    assert_eq!(status(&json), "error");
    let msg = json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.starts_with("insert failed: ") && msg.contains("bound"),
        "{msg}"
    );
    let json = answer(&core, r#"{"tenant":"t","op":"remove","rect":[1,1,2,2]}"#);
    assert_eq!(
        json.get("version").and_then(Json::as_u64),
        Some(MAX_OBJECTS + 1)
    );
    let json = answer(&core, INSERT);
    assert_eq!(
        json.get("version").and_then(Json::as_u64),
        Some(MAX_OBJECTS + 2)
    );
    assert_eq!(status(&answer(&core, INSERT)), "error");
}

const INSERT: &str = r#"{"tenant":"t","op":"insert","rect":[1,1,2,2]}"#;

/// A durable session seeded at the bound refuses the insert before
/// logging it: the refusal is a structured error, the WAL stays usable,
/// and a reboot recovers the same version.
#[test]
fn a_durable_insert_at_the_bound_is_refused_before_the_log() {
    let dir = temp_dir("durable");
    let at_bound = EulerHistogram::from_bytes(&crafted_image(MAX_OBJECTS)).unwrap();
    let (session, _) =
        DurableSession::open_preloaded(&dir, DurableConfig::default(), at_bound).expect("open");
    let core = ServeCore::new(Arc::new(session), ServeConfig::default());
    let json = answer(&core, INSERT);
    let msg = json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.starts_with("insert failed: ") && msg.contains("bound"),
        "{msg}"
    );
    let json = answer(&core, r#"{"tenant":"t","op":"remove","rect":[1,1,2,2]}"#);
    assert_eq!(
        json.get("version").and_then(Json::as_u64),
        Some(MAX_OBJECTS + 1)
    );
    drop(core);
    let (store, report) =
        DurableLive::open(&dir, grid(), DurableConfig::default()).expect("reopen");
    assert_eq!((report.version, report.replayed), (MAX_OBJECTS + 1, 1));
    assert_eq!(store.len(), MAX_OBJECTS - 1);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A logged insert that would pass the bound on replay — its checkpoint
/// swapped for one at the bound — fails recovery with a structured
/// `WalError::Corrupt` naming the record, not a panic.
#[test]
fn a_replayed_insert_past_the_bound_is_a_recovery_error() {
    let dir = temp_dir("replay");
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    let snap = |r: [f64; 4]| {
        euler_grid::Snapper::new(grid()).snap(&Rect::new(r[0], r[1], r[2], r[3]).unwrap())
    };
    let (store, _) = DurableLive::open(&dir, grid(), cfg).expect("open");
    store.insert(&snap([1.0, 1.0, 2.0, 2.0])).unwrap();
    store.checkpoint().unwrap();
    store.insert(&snap([3.0, 3.0, 5.0, 5.0])).unwrap();
    store.sync().unwrap();
    drop(store);
    std::fs::write(
        dir.join("checkpoint-000001.euh"),
        crafted_image(MAX_OBJECTS),
    )
    .unwrap();
    match DurableLive::open(&dir, grid(), cfg) {
        Err(WalError::Corrupt { what, .. }) => {
            assert!(
                what.starts_with("record 2: ") && what.contains("bound"),
                "{what}"
            )
        }
        other => panic!("expected a replay refusal, got {:?}", other.map(|(_, r)| r)),
    }
    std::fs::remove_dir_all(&dir).ok();
}
