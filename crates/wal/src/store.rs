//! [`DurableLive`]: a [`LiveEulerHistogram`] whose write log survives
//! process death — append + fsync to the WAL first, apply and
//! acknowledge second — plus the recovery path that rebuilds exactly
//! the acknowledged prefix on boot.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use euler_core::snapshot::DEFAULT_SEAL_EVERY;
use euler_core::{DeltaOp, EulerHistogram, LiveEulerHistogram};
use euler_engine::faults::{wal_fault, FaultKind, FaultSite};
use euler_grid::{Grid, SnappedRect};

use crate::log::{fsync_dir, FsyncPolicy, Wal, WalConfig};
use crate::manifest::Manifest;
use crate::segment::{list_segments, scan_segment, ScanEnd, ScannedRecord, SEGMENT_HEADER_LEN};
use crate::WalError;

/// Configuration for a [`DurableLive`] store.
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Append-side settings (fsync policy, segment rotation size).
    pub wal: WalConfig,
    /// The live histogram's automatic refreeze threshold.
    pub refreeze_every: Option<usize>,
    /// Take a checkpoint automatically every this many acknowledged
    /// records (`None` leaves checkpointing to explicit calls and
    /// shutdown). Checkpoints bound replay time and let old segments be
    /// pruned.
    pub checkpoint_every: Option<u64>,
}

impl Default for DurableConfig {
    fn default() -> DurableConfig {
        DurableConfig {
            wal: WalConfig::default(),
            refreeze_every: Some(1024),
            checkpoint_every: Some(4096),
        }
    }
}

impl DurableConfig {
    /// Same config with a different fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> DurableConfig {
        self.wal.fsync = fsync;
        self
    }
}

/// A torn tail recovery truncated away: a warning, not an error — the
/// bytes were a record in flight when the process died, never
/// acknowledged durable under `FsyncPolicy::Always`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment the tail was found in.
    pub segment: u64,
    /// Offset the segment was truncated to.
    pub offset: u64,
    /// What the torn bytes failed to parse as.
    pub reason: String,
}

/// What recovery did on boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch the loaded checkpoint captured (1 when starting empty).
    pub checkpoint_epoch: u64,
    /// Write-log version the checkpoint covered (0 when starting empty).
    pub checkpoint_version: u64,
    /// Records replayed from the WAL suffix.
    pub replayed: u64,
    /// Final recovered version (`checkpoint_version + replayed`).
    pub version: u64,
    /// Segments scanned (including fully-covered ones skipped).
    pub segments_scanned: usize,
    /// The torn tail truncated away, if any.
    pub torn_tail: Option<TornTail>,
}

struct Inner {
    wal: Wal,
    records_since_checkpoint: u64,
}

/// A durable [`LiveEulerHistogram`]: every write is appended to the WAL
/// (and fsynced per policy) *before* it is applied and acknowledged, so
/// [`DurableLive::open`] after a crash rebuilds exactly the
/// acknowledged prefix — checkpoint image + WAL suffix replay.
///
/// All writes must go through this handle; reads go straight to the
/// shared [`LiveEulerHistogram`] (pin a snapshot, answer lock-free) and
/// never touch the WAL.
pub struct DurableLive {
    live: Arc<LiveEulerHistogram>,
    dir: PathBuf,
    cfg: DurableConfig,
    inner: Mutex<Inner>,
    checkpoint_failures: AtomicU64,
    last_checkpoint_error: Mutex<Option<String>>,
}

impl std::fmt::Debug for DurableLive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLive")
            .field("dir", &self.dir)
            .field("version", &self.live.version())
            .finish_non_exhaustive()
    }
}

impl DurableLive {
    /// Opens (and if necessary recovers) a durable store in `dir`,
    /// creating the directory when missing. `grid` is the histogram
    /// grid an empty store starts with; a checkpoint found on disk must
    /// match it ([`WalError::GridMismatch`] otherwise).
    pub fn open(
        dir: &Path,
        grid: Grid,
        cfg: DurableConfig,
    ) -> Result<(DurableLive, RecoveryReport), WalError> {
        DurableLive::open_preloaded(dir, cfg, EulerHistogram::new(grid))
    }

    /// Like [`DurableLive::open`] over `preload`'s grid, but an empty
    /// store (no checkpoint beyond version 0, no records) is first seeded
    /// with the bulk-built `preload`: one checkpoint image of it at
    /// epoch 1, version `preload.object_count()`, installed through the
    /// same temp → fsync → rename → manifest path as every checkpoint.
    /// Seeding is atomic: a crash before the manifest lands leaves the
    /// store at version 0, and the next open seeds it again. A store that
    /// already holds writes ignores `preload`.
    pub fn open_preloaded(
        dir: &Path,
        cfg: DurableConfig,
        preload: EulerHistogram,
    ) -> Result<(DurableLive, RecoveryReport), WalError> {
        let grid = *preload.grid();
        std::fs::create_dir_all(dir)?;

        // 1. Manifest → checkpoint image (if any).
        let manifest = Manifest::load(dir)?;
        let (checkpoint, mut ckpt_epoch, mut ckpt_version, replay_from_seq) = match &manifest {
            Some(m) => {
                let bytes = std::fs::read(dir.join(&m.checkpoint))
                    .map_err(|e| WalError::BadCheckpoint(format!("{}: {e}", m.checkpoint)))?;
                let hist = EulerHistogram::from_bytes(&bytes)
                    .map_err(|e| WalError::BadCheckpoint(format!("{}: {e}", m.checkpoint)))?;
                if *hist.grid() != grid {
                    return Err(WalError::GridMismatch);
                }
                (Some(hist), m.epoch, m.version, m.wal_seq)
            }
            None => (None, 1, 0, 0),
        };

        // 2. Scan segments and collect the replay suffix.
        let segments = list_segments(dir)?;
        let mut replay: Vec<(u64, ScannedRecord)> = Vec::new();
        let mut expected_next = ckpt_version + 1;
        let mut torn_tail: Option<TornTail> = None;
        let mut max_seq = manifest.as_ref().map_or(0, |m| m.wal_seq);
        let last_idx = segments.len().wrapping_sub(1);
        for (i, (seq, path)) in segments.iter().enumerate() {
            max_seq = max_seq.max(*seq);
            if *seq < replay_from_seq {
                continue; // fully covered by the checkpoint; stale.
            }
            let bytes = std::fs::read(path)?;
            let (records, end) = scan_segment(&bytes, *seq, i == last_idx)?;
            for r in &records {
                if r.version <= ckpt_version {
                    continue; // covered by the checkpoint; idempotent skip.
                }
                if r.version != expected_next {
                    return Err(WalError::VersionGap {
                        expected: expected_next,
                        found: r.version,
                        segment: *seq,
                    });
                }
                replay.push((*seq, *r));
                expected_next += 1;
            }
            if let ScanEnd::Torn { offset, reason } = end {
                // Physically truncate the torn bytes so the next boot
                // (and any external reader) sees a clean log.
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(offset)?;
                f.sync_data()?;
                torn_tail = Some(TornTail {
                    segment: *seq,
                    offset,
                    reason,
                });
            }
        }

        // 3. Seed an empty store with the preload; otherwise drop it. The
        // manifest names the segment step 5 creates as the replay start,
        // as a checkpoint's rotation does.
        let base = if ckpt_version == 0 && replay.is_empty() && preload.object_count() > 0 {
            let bytes = preload.to_bytes_compressed();
            checkpoint_fault(dir, || bytes.clone())?;
            let version = preload.object_count();
            let manifest = Manifest {
                epoch: 1,
                version,
                wal_seq: max_seq + 1,
                wal_offset: SEGMENT_HEADER_LEN as u64,
                checkpoint: write_image(dir, version, &bytes)?,
            };
            manifest.install(dir)?;
            (ckpt_epoch, ckpt_version) = (manifest.epoch, version);
            preload
        } else {
            drop(preload);
            checkpoint.unwrap_or_else(|| EulerHistogram::new(grid))
        };

        // 4. Rebuild the live histogram and replay the suffix.
        let live = LiveEulerHistogram::restore(
            base,
            DEFAULT_SEAL_EVERY,
            cfg.refreeze_every,
            ckpt_epoch,
            ckpt_version,
        );
        for (segment, r) in &replay {
            live.apply(r.op).map_err(|e| WalError::Corrupt {
                segment: *segment,
                offset: r.offset,
                what: format!("record {}: {e}", r.version),
            })?;
        }
        let report = RecoveryReport {
            checkpoint_epoch: ckpt_epoch,
            checkpoint_version: ckpt_version,
            replayed: replay.len() as u64,
            version: live.version(),
            segments_scanned: segments.len(),
            torn_tail,
        };

        // 5. Open a fresh segment for new appends (sequence numbers are
        // never reused, so a torn previous tail can never be confused
        // with new records).
        let wal = Wal::create(dir, cfg.wal, max_seq + 1, live.version() + 1)?;
        Ok((
            DurableLive {
                live: Arc::new(live),
                dir: dir.to_path_buf(),
                cfg,
                inner: Mutex::new(Inner {
                    wal,
                    records_since_checkpoint: 0,
                }),
                checkpoint_failures: AtomicU64::new(0),
                last_checkpoint_error: Mutex::new(None),
            },
            report,
        ))
    }

    /// The shared live histogram — hand this to read paths (browse
    /// sessions, estimators); they pin snapshots without touching the
    /// WAL.
    pub fn live(&self) -> &Arc<LiveEulerHistogram> {
        &self.live
    }

    /// Write-log version (number of acknowledged writes).
    pub fn version(&self) -> u64 {
        self.live.version()
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Live object count.
    pub fn len(&self) -> u64 {
        self.live.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of background checkpoints that failed (the op that
    /// triggered them was still acknowledged — the WAL has it).
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.load(Relaxed)
    }

    /// The most recent background-checkpoint failure, if any.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.last_checkpoint_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Durably applies one write: WAL append (+ fsync per policy), then
    /// the in-memory apply. Returns the acknowledged write-log version.
    /// A write the live histogram refuses (a remove past empty, an insert
    /// at the object bound) is an `InvalidInput` error, checked before
    /// anything is logged. On any other `Err` the write is **not**
    /// acknowledged, not applied, and the WAL is poisoned until restart —
    /// the fail-stop contract.
    pub fn apply(&self, op: DeltaOp) -> io::Result<u64> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.live
            .admit(&op)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let version = inner.wal.append(&op)?;
        let applied = self.live.apply(op);
        debug_assert_eq!(applied, Ok(version), "checked above, under the WAL lock");
        inner.records_since_checkpoint += 1;
        if let Some(every) = self.cfg.checkpoint_every {
            if inner.records_since_checkpoint >= every {
                if let Err(e) = self.checkpoint_locked(&mut inner) {
                    // The op is acknowledged (it is in the WAL); a failed
                    // background checkpoint only delays pruning.
                    self.checkpoint_failures.fetch_add(1, Relaxed);
                    *self
                        .last_checkpoint_error
                        .lock()
                        .unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
                }
            }
        }
        Ok(version)
    }

    /// Durably inserts a snapped object.
    pub fn insert(&self, o: &SnappedRect) -> io::Result<u64> {
        self.apply(DeltaOp::insert(*o))
    }

    /// Durably removes a previously inserted object.
    pub fn remove(&self, o: &SnappedRect) -> io::Result<u64> {
        self.apply(DeltaOp::delete(*o))
    }

    /// Forces every acknowledged record to disk — the shutdown drain,
    /// and the commit point for the `EveryN`/`Never` policies.
    pub fn sync(&self) -> io::Result<()> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wal
            .sync()
    }

    /// Takes a checkpoint now: folds the delta, writes the image through
    /// the persist codec, rotates the WAL, installs the manifest, prunes
    /// covered segments and superseded images. Returns the `(epoch,
    /// version)` the checkpoint captured.
    pub fn checkpoint(&self) -> io::Result<(u64, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.checkpoint_locked(&mut inner)
    }

    fn checkpoint_locked(&self, inner: &mut Inner) -> io::Result<(u64, u64)> {
        checkpoint_fault(&self.dir, || self.live.checkpoint_image().bytes)?;
        // Everything appended so far must be durable before the manifest
        // can claim the image + this WAL position as authoritative.
        inner.wal.sync()?;
        let image = self.live.checkpoint_image();
        let name = write_image(&self.dir, image.version, &image.bytes)?;
        // Fresh segment so the manifest names a clean replay start.
        inner.wal.rotate()?;
        let manifest = Manifest {
            epoch: image.epoch,
            version: image.version,
            wal_seq: inner.wal.seq(),
            wal_offset: SEGMENT_HEADER_LEN as u64,
            checkpoint: name.clone(),
        };
        manifest.install(&self.dir)?;
        inner.records_since_checkpoint = 0;
        self.prune(&name, inner.wal.seq());
        Ok((image.epoch, image.version))
    }

    /// Best-effort removal of segments and images the manifest no longer
    /// needs. Failures are harmless (retried by the next checkpoint).
    fn prune(&self, keep_checkpoint: &str, keep_seq_from: u64) {
        if let Ok(segments) = list_segments(&self.dir) {
            for (seq, path) in segments {
                if seq < keep_seq_from {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("checkpoint-")
                    && name.ends_with(".euh")
                    && name != keep_checkpoint
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// The `WalCheckpoint` fail point, checked once per image install before
/// anything is written. An injected short write also leaves a torn temp
/// image behind: harmless on recovery (the rename never happens), but the
/// install fails.
fn checkpoint_fault(dir: &Path, image: impl FnOnce() -> Vec<u8>) -> io::Result<()> {
    match wal_fault(FaultSite::WalCheckpoint) {
        Some(FaultKind::IoError) => {}
        Some(FaultKind::ShortWrite(n)) => {
            let bytes = image();
            if let Ok(mut f) = std::fs::File::create(dir.join("checkpoint.tmp")) {
                let keep = (n as usize).min(bytes.len());
                let _ = f.write_all(&bytes[..keep]);
                let _ = f.sync_data();
            }
        }
        _ => return Ok(()),
    }
    Err(io::Error::other("injected wal fault at WalCheckpoint"))
}

/// Writes a checkpoint image for write-log `version` durably under its
/// final name (temp file → fsync → rename → directory fsync) and returns
/// that name. Until a manifest names it, recovery ignores the file.
fn write_image(dir: &Path, version: u64, bytes: &[u8]) -> io::Result<String> {
    let name = format!("checkpoint-{version:06}.euh");
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(&name))?;
    fsync_dir(dir)?;
    Ok(name)
}
