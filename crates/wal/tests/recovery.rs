//! Recovery-path integration tests: every way a data directory can look
//! on boot — fresh, checkpoint-only, WAL-only, both, torn, duplicated —
//! must either recover to exactly the acknowledged prefix or fail hard.

use std::path::{Path, PathBuf};

use euler_core::{DeltaOp, EulerHistogram, FrozenEulerHistogram};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, SnappedRect, Snapper};
use euler_wal::{crc32, DurableConfig, DurableLive, FsyncPolicy, WalError, RECORD_PAYLOAD_LEN};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn grid(nx: usize, ny: usize) -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
        nx,
        ny,
    )
    .unwrap()
}

/// A seeded write log: inserts and valid deletes of earlier inserts.
fn write_log(g: &Grid, n: usize, seed: u64) -> Vec<DeltaOp> {
    let s = Snapper::new(*g);
    let mut rng = StdRng::seed_from_u64(seed);
    let (w, h) = (g.nx() as f64, g.ny() as f64);
    let mut alive: Vec<SnappedRect> = Vec::new();
    let mut log = Vec::with_capacity(n);
    for _ in 0..n {
        if !alive.is_empty() && rng.gen_bool(0.3) {
            let i = rng.gen_range(0..alive.len());
            log.push(DeltaOp::delete(alive.swap_remove(i)));
        } else {
            let x = rng.gen_range(0.0..w - 0.05);
            let y = rng.gen_range(0.0..h - 0.05);
            let ww = rng.gen_range(0.05..w);
            let hh = rng.gen_range(0.05..h);
            let o = s.snap(&Rect::new(x, y, (x + ww).min(w), (y + hh).min(h)).unwrap());
            alive.push(o);
            log.push(DeltaOp::insert(o));
        }
    }
    log
}

/// Frozen rebuild of a write-log prefix — the recovery oracle.
fn rebuild(g: Grid, log: &[DeltaOp]) -> FrozenEulerHistogram {
    let mut h = EulerHistogram::new(g);
    h.apply_signed_batch(log.iter().map(|op| (&op.rect, op.sign)));
    h.freeze()
}

/// Fresh unique temp directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("euler-wal-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn frozen_of(store: &DurableLive) -> FrozenEulerHistogram {
    store.live().refreeze().frozen().as_ref().clone()
}

fn assert_matches_prefix(store: &DurableLive, g: Grid, log: &[DeltaOp], acked: usize) {
    assert_eq!(store.version(), acked as u64);
    assert_eq!(frozen_of(store), rebuild(g, &log[..acked]));
}

fn list(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
}

#[test]
fn empty_directory_starts_fresh() {
    let dir = temp_dir("fresh");
    let g = grid(8, 6);
    let (store, report) = DurableLive::open(&dir, g, DurableConfig::default()).unwrap();
    assert_eq!(report.checkpoint_version, 0);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.segments_scanned, 0);
    assert_eq!(report.torn_tail, None);
    assert_eq!(store.version(), 0);
    assert!(store.is_empty());
    // The directory now has one empty segment and no manifest.
    assert_eq!(list(&dir, ".log"), vec!["wal-000001.log"]);
    assert_eq!(list(&dir, "MANIFEST"), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_only_recovery_replays_everything() {
    let dir = temp_dir("wal-only");
    let g = grid(10, 8);
    let log = write_log(&g, 73, 11);
    let cfg = DurableConfig {
        checkpoint_every: None, // never checkpoint: recovery is pure replay
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
        assert_matches_prefix(&store, g, &log, log.len());
    }
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.checkpoint_version, 0);
    assert_eq!(report.replayed, log.len() as u64);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_plus_suffix_recovery() {
    let dir = temp_dir("ckpt-suffix");
    let g = grid(12, 9);
    let log = write_log(&g, 90, 23);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log[..60] {
            store.apply(*op).unwrap();
        }
        let (_, v) = store.checkpoint().unwrap();
        assert_eq!(v, 60);
        for op in &log[60..] {
            store.apply(*op).unwrap();
        }
    }
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.checkpoint_version, 60);
    assert_eq!(report.replayed, 30);
    assert_eq!(report.version, 90);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_with_no_wal_segments_recovers_from_the_image_alone() {
    let dir = temp_dir("ckpt-no-wal");
    let g = grid(9, 7);
    let log = write_log(&g, 40, 5);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
        store.checkpoint().unwrap();
    }
    // Lose every WAL segment (e.g. a backup that copied only the
    // checkpoint + manifest). The checkpoint covers all acked records,
    // so recovery succeeds with zero replay.
    for name in list(&dir, ".log") {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.checkpoint_version, 40);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.segments_scanned, 0);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovering_twice_is_idempotent() {
    let dir = temp_dir("twice");
    let g = grid(10, 10);
    let log = write_log(&g, 55, 31);
    let cfg = DurableConfig {
        checkpoint_every: Some(20), // exercise auto-checkpointing too
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
    }
    let first = {
        let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
        assert_matches_prefix(&store, g, &log, log.len());
        (report.checkpoint_version, report.version, frozen_of(&store))
    };
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.checkpoint_version, first.0);
    assert_eq!(report.version, first.1);
    assert_eq!(frozen_of(&store), first.2);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_is_truncated_and_reported_once() {
    let dir = temp_dir("torn");
    let g = grid(8, 8);
    let log = write_log(&g, 30, 47);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
    }
    // Tear 17 bytes off the final record of the newest segment.
    let last = list(&dir, ".log").pop().unwrap();
    let path = dir.join(&last);
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 17).unwrap();
    drop(f);
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    let torn = report.torn_tail.expect("torn tail reported");
    assert_eq!(report.replayed, 29);
    assert_matches_prefix(&store, g, &log, 29);
    // The truncation is physical: the file now ends at the boundary.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), torn.offset);
    drop(store);
    // A second recovery sees a clean log — the tear is gone.
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.torn_tail, None);
    assert_matches_prefix(&store, g, &log, 29);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_segment_sequence_is_a_hard_error() {
    let dir = temp_dir("dup");
    let g = grid(6, 6);
    {
        let (store, _) = DurableLive::open(&dir, g, DurableConfig::default()).unwrap();
        store
            .insert(&SnappedRect::from_bounds(0.25, 1.75, 0.25, 1.75))
            .unwrap();
    }
    // An un-canonically named copy of segment 1.
    std::fs::copy(dir.join("wal-000001.log"), dir.join("wal-1.log")).unwrap();
    match DurableLive::open(&dir, g, DurableConfig::default()) {
        Err(WalError::DuplicateSegment(1)) => {}
        other => panic!("expected duplicate segment error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_grid_is_rejected() {
    let dir = temp_dir("grid");
    let g = grid(8, 6);
    {
        let (store, _) = DurableLive::open(&dir, g, DurableConfig::default()).unwrap();
        store
            .insert(&SnappedRect::from_bounds(0.25, 1.75, 0.25, 1.75))
            .unwrap();
        store.checkpoint().unwrap();
    }
    match DurableLive::open(&dir, grid(7, 6), DurableConfig::default()) {
        Err(WalError::GridMismatch) => {}
        other => panic!("expected grid mismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_rotation_spans_recovery() {
    let dir = temp_dir("rotate");
    let g = grid(10, 8);
    let log = write_log(&g, 120, 77);
    let mut cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    // ~20 records per segment → six-plus segments.
    cfg.wal.segment_bytes = 1024;
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
    }
    assert!(list(&dir, ".log").len() >= 4, "rotation produced segments");
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.replayed, 120);
    assert!(report.segments_scanned >= 4);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_fsync_policy_survives_a_graceful_close() {
    for (tag, fsync) in [
        ("always", FsyncPolicy::Always),
        ("every8", FsyncPolicy::EveryN(8)),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = temp_dir(&format!("policy-{tag}"));
        let g = grid(9, 9);
        let log = write_log(&g, 33, 3);
        let cfg = DurableConfig::default().with_fsync(fsync);
        {
            let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
            for op in &log {
                store.apply(*op).unwrap();
            }
            store.sync().unwrap(); // the graceful-shutdown drain
        }
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        assert_matches_prefix(&store, g, &log, log.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_prunes_covered_segments_and_old_images() {
    let dir = temp_dir("prune");
    let g = grid(10, 10);
    let log = write_log(&g, 80, 13);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
    for op in &log[..40] {
        store.apply(*op).unwrap();
    }
    store.checkpoint().unwrap();
    for op in &log[40..] {
        store.apply(*op).unwrap();
    }
    store.checkpoint().unwrap();
    // Only the newest image and the post-checkpoint segment remain.
    assert_eq!(list(&dir, ".euh"), vec!["checkpoint-000080.euh"]);
    let segments = list(&dir, ".log");
    assert_eq!(segments.len(), 1);
    drop(store);
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.checkpoint_version, 80);
    assert_eq!(report.replayed, 0);
    assert_matches_prefix(&store, g, &log, log.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delete_from_empty_store_is_rejected_without_a_wal_record() {
    let dir = temp_dir("empty-delete");
    let g = grid(6, 6);
    let (store, _) = DurableLive::open(&dir, g, DurableConfig::default()).unwrap();
    let r = SnappedRect::from_bounds(0.25, 1.75, 0.25, 1.75);
    assert!(store.remove(&r).is_err());
    assert_eq!(store.version(), 0);
    drop(store);
    let (store, report) = DurableLive::open(&dir, g, DurableConfig::default()).unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(store.version(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copies every file of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn every_segment_byte_flip_fails_or_recovers_a_torn_prefix() {
    let dir = temp_dir("flip");
    let work = temp_dir("flip-work");
    let g = grid(10, 8);
    let log = write_log(&g, 30, 83);
    let mut cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    cfg.wal.segment_bytes = 512;
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
    }
    let segments = list(&dir, ".log");
    assert!(segments.len() >= 3, "rotation produced {segments:?}");
    let prefixes: Vec<FrozenEulerHistogram> =
        (0..=log.len()).map(|v| rebuild(g, &log[..v])).collect();

    // Every single-byte flip of every segment, each on a fresh copy of
    // the store: recovery either refuses, or reports a torn tail and
    // serves a strict prefix of the log.
    for name in &segments {
        let original = std::fs::read(dir.join(name)).unwrap();
        for i in 0..original.len() {
            for pat in [0x01u8, 0xFF] {
                let what = format!("{name} byte {i} ^ {pat:#04x}");
                copy_dir(&dir, &work);
                let mut damaged = original.clone();
                damaged[i] ^= pat;
                std::fs::write(work.join(name), &damaged).unwrap();
                let Ok((store, report)) = DurableLive::open(&work, g, cfg) else {
                    continue;
                };
                assert!(report.torn_tail.is_some(), "{what}: no torn tail");
                let v = store.version() as usize;
                assert!(v < log.len(), "{what}: recovered the whole log");
                assert_eq!(frozen_of(&store), prefixes[v], "{what}: version {v}");
            }
        }
    }
    std::fs::remove_dir_all(&work).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The inserts of a seeded write log, as a preload.
fn preload(g: &Grid, n: usize, seed: u64) -> Vec<SnappedRect> {
    write_log(g, n, seed)
        .into_iter()
        .filter(|op| op.sign > 0)
        .map(|op| op.rect)
        .collect()
}

#[test]
fn seeding_is_atomic_and_only_seeds_an_empty_store() {
    let dir = temp_dir("seed");
    let g = grid(12, 9);
    let objects = preload(&g, 60, 71);
    let n = objects.len();
    let as_log: Vec<DeltaOp> = objects.iter().map(|o| DeltaOp::insert(*o)).collect();
    let cfg = DurableConfig::default();

    // A seeding attempt that died before its manifest landed: an
    // abandoned temp image and a renamed but unnamed one. Recovery
    // ignores both; the store is empty.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("checkpoint-{n:06}.euh.tmp")), b"torn").unwrap();
    let stray = EulerHistogram::build(g, &objects[..n / 2]).to_bytes_compressed();
    std::fs::write(dir.join(format!("checkpoint-{n:06}.euh")), &stray).unwrap();
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.version, 0);
    assert!(store.is_empty());
    drop(store);

    // The next seeded boot installs the whole preload at version N.
    let (store, report) =
        DurableLive::open_preloaded(&dir, cfg, EulerHistogram::build(g, &objects)).unwrap();
    assert_eq!(
        (report.checkpoint_epoch, report.checkpoint_version),
        (1, n as u64)
    );
    assert_eq!(report.replayed, 0);
    assert_matches_prefix(&store, g, &as_log, n);
    assert_eq!(list(&dir, "MANIFEST"), vec!["MANIFEST"]);

    // Later writes land in the WAL as versions N+1..; a reboot with a
    // different preload keeps the store's own history.
    let extra = write_log(&g, 9, 72);
    for op in &extra {
        store.apply(*op).unwrap();
    }
    drop(store);
    let mut full = as_log.clone();
    full.extend_from_slice(&extra);
    let (store, report) =
        DurableLive::open_preloaded(&dir, cfg, EulerHistogram::build(g, &objects[..3])).unwrap();
    assert_eq!(report.checkpoint_version, n as u64);
    assert_eq!(report.replayed, extra.len() as u64);
    assert_matches_prefix(&store, g, &full, full.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 4×4 compressed checkpoint image (format v2) whose payload is one
/// non-zero token, a zero-run marker and a run length of `u64::MAX` —
/// the run would overflow the decoder's bucket arithmetic.
fn zero_run_overflow_image() -> Vec<u8> {
    let mut image = EulerHistogram::new(grid(4, 4)).to_bytes_compressed();
    image.truncate(4 + 4 + 32 + 8 * 4); // keep the header only
    image.extend_from_slice(&[0x02, 0x00]); // zigzag(1), then the marker
    image.extend_from_slice(&[0xFF; 9]);
    image.push(0x01); // varint(u64::MAX)
    image.extend_from_slice(&0u64.to_le_bytes()); // checksum
    image
}

#[test]
fn damaged_manifest_or_checkpoint_is_a_bad_checkpoint_error() {
    let dir = temp_dir("damaged-meta");
    let g = grid(12, 9);
    let log = write_log(&g, 40, 47);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            store.apply(*op).unwrap();
        }
        assert_eq!(store.checkpoint().unwrap().1, 40);
    }
    let images = list(&dir, ".euh");
    assert_eq!(images.len(), 1);
    let reopen_is_bad_checkpoint = |what: &str| match DurableLive::open(&dir, g, cfg) {
        Err(WalError::BadCheckpoint(_)) => {}
        Err(e) => panic!("{what}: expected BadCheckpoint, got {e:?}"),
        Ok(_) => panic!("{what}: reopened a damaged store"),
    };

    // Every single-byte flip of either file is caught (manifest CRC,
    // image checksum) and reported as a structured error.
    for name in ["MANIFEST", images[0].as_str()] {
        let path = dir.join(name);
        let original = std::fs::read(&path).unwrap();
        for i in 0..original.len() {
            for pat in [0x01u8, 0xFF] {
                let mut damaged = original.clone();
                damaged[i] ^= pat;
                std::fs::write(&path, &damaged).unwrap();
                reopen_is_bad_checkpoint(&format!("{name} byte {i} ^ {pat:#04x}"));
            }
        }
        std::fs::write(&path, &original).unwrap();
    }

    // A crafted image is an error too, not a panic in the decoder.
    let path = dir.join(&images[0]);
    let original = std::fs::read(&path).unwrap();
    std::fs::write(&path, zero_run_overflow_image()).unwrap();
    reopen_is_bad_checkpoint("zero-run image");

    // With both files intact again, the store recovers in full.
    std::fs::write(&path, &original).unwrap();
    let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_matches_prefix(&store, g, &log, log.len());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A replayed record that removes past empty is hard corruption naming
/// its segment and offset, never a panic: the first record of a WAL is
/// rewritten, CRC and all, from an insert into a delete.
#[test]
fn a_replayed_remove_past_empty_is_corruption() {
    let dir = temp_dir("remove-past-empty");
    let g = grid(6, 6);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    };
    let op = write_log(&g, 1, 5)[0];
    {
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        assert_eq!(store.apply(op).unwrap(), 1);
    }
    let path = dir.join("wal-000001.log");
    let mut bytes = std::fs::read(&path).unwrap();
    let frame = bytes.len() - (8 + RECORD_PAYLOAD_LEN);
    let payload = frame + 8;
    assert_eq!(bytes[payload + 8], 1, "the record is an insert");
    bytes[payload + 8] = (-1i8) as u8;
    let crc = crc32(&bytes[payload..]);
    bytes[frame + 4..payload].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    match DurableLive::open(&dir, g, cfg) {
        Err(WalError::Corrupt {
            segment,
            offset,
            what,
        }) => {
            assert_eq!((segment, offset), (1, frame as u64));
            assert!(what.contains("remove from empty"), "{what}");
        }
        other => panic!(
            "expected corruption, got {:?}",
            other.map(|(s, _)| s.version())
        ),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
