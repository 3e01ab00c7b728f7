//! The crash-recovery law for the durability layer (`euler-wal`):
//! **after any kill point — a clean stop after `k` acknowledged ops, or
//! a torn tail cut at any byte offset — recovery rebuilds a state
//! bit-identical to the frozen rebuild of exactly the surviving
//! write-log prefix.** No acknowledged op lost, no phantom op invented,
//! no half-applied record.
//!
//! Two checks share one seeded write log (the interleaving law's
//! generator, so crash cases and concurrency cases draw from the same
//! distribution):
//!
//! - [`check_kill_points`] stops ingest after every `k` in `0..=n`
//!   (dropping the store without a graceful drain, under
//!   `FsyncPolicy::Always`) and requires recovery at exactly version
//!   `k`. Run it both without checkpoints (pure replay) and with a
//!   small `checkpoint_every` (image + suffix).
//! - [`check_torn_tails`] writes the full log into a single segment,
//!   then replays recovery against a copy truncated at **every** byte
//!   offset — every record boundary, boundary ± 1, and all the torn
//!   interiors — requiring the surviving whole-record prefix and
//!   nothing else. A second pass flips the final byte instead of
//!   cutting, covering CRC-failing (rather than short) tails.
//!
//! Both checks are deterministic: same spec, same verdict, any machine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use euler_core::snapshot::DeltaOp;
use euler_core::{EulerHistogram, FrozenEulerHistogram};
use euler_wal::{DurableConfig, DurableLive, FsyncPolicy};

use crate::interleave::write_log;
use crate::spec::CaseSpec;

/// Outcome of one crash-recovery sweep.
#[derive(Debug, Default)]
pub struct CrashSummary {
    /// Kill points (or cut offsets) recovered and verified.
    pub recoveries_checked: usize,
    /// Human-readable law violations (empty on success).
    pub violations: Vec<String>,
}

impl CrashSummary {
    /// True when every recovery matched its prefix rebuild.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Frozen rebuilds of every write-log prefix, computed once per sweep.
fn prefix_rebuilds(spec: &CaseSpec, log: &[DeltaOp]) -> Vec<FrozenEulerHistogram> {
    let mut out = Vec::with_capacity(log.len() + 1);
    let mut hist = EulerHistogram::new(spec.grid());
    out.push(hist.clone().freeze());
    for op in log {
        if op.sign > 0 {
            hist.insert(&op.rect);
        } else {
            hist.remove(&op.rect);
        }
        out.push(hist.clone().freeze());
    }
    out
}

/// A fresh scratch directory path per call: the process id and a
/// per-process counter keep concurrent law runs (parallel tests on the
/// same seed, say) out of each other's stores.
fn scratch_dir(tag: &str, seed: u64, k: usize) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "euler-crash-{tag}-{seed:x}-{k}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn verify_recovery(
    dir: &Path,
    spec: &CaseSpec,
    cfg: DurableConfig,
    expected_version: usize,
    rebuilds: &[FrozenEulerHistogram],
    context: &str,
    summary: &mut CrashSummary,
) {
    summary.recoveries_checked += 1;
    match DurableLive::open(dir, spec.grid(), cfg) {
        Ok((store, report)) => {
            if store.version() as usize != expected_version {
                summary.violations.push(format!(
                    "{context}: recovered version {} (replayed {} from checkpoint {}), \
                     expected {expected_version} (replay: {})",
                    store.version(),
                    report.replayed,
                    report.checkpoint_version,
                    spec.to_line(),
                ));
                return;
            }
            let snap = store.live().refreeze();
            if *snap.frozen().as_ref() != rebuilds[expected_version] {
                summary.violations.push(format!(
                    "{context}: recovered version {expected_version} but the state \
                     differs from the frozen prefix rebuild (replay: {})",
                    spec.to_line(),
                ));
            }
        }
        Err(e) => summary.violations.push(format!(
            "{context}: recovery failed: {e} (replay: {})",
            spec.to_line(),
        )),
    }
}

/// Stops ingest after every acknowledged-op count `k` in `0..=n` and
/// requires recovery at exactly version `k`, state bit-identical to the
/// frozen rebuild of `log[..k]`. `checkpoint_every: None` exercises pure
/// WAL replay; a small `Some(..)` exercises checkpoint-plus-suffix.
pub fn check_kill_points(spec: &CaseSpec, checkpoint_every: Option<u64>) -> CrashSummary {
    let log = write_log(spec);
    let rebuilds = prefix_rebuilds(spec, &log);
    let cfg = DurableConfig {
        checkpoint_every,
        ..DurableConfig::default()
    };
    let mut summary = CrashSummary::default();
    for k in 0..=log.len() {
        let dir = scratch_dir("kill", spec.seed, k);
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (store, _) = match DurableLive::open(&dir, spec.grid(), cfg) {
                Ok(v) => v,
                Err(e) => {
                    summary
                        .violations
                        .push(format!("kill point {k}: open failed: {e}"));
                    continue;
                }
            };
            for op in &log[..k] {
                if let Err(e) = store.apply(*op) {
                    summary
                        .violations
                        .push(format!("kill point {k}: acked apply failed: {e}"));
                }
            }
            // Dropped without sync: the simulated kill. Under
            // `FsyncPolicy::Always` every acked op is already durable.
        }
        verify_recovery(
            &dir,
            spec,
            cfg,
            k,
            &rebuilds,
            &format!("kill point {k} (checkpoint_every {checkpoint_every:?})"),
            &mut summary,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    summary
}

/// Writes the full log into one segment, then recovers from a copy
/// truncated at every byte offset (and, at each whole-frame boundary,
/// from a copy with its final byte flipped): recovery must keep exactly
/// the whole records below the damage and truncate the rest away.
pub fn check_torn_tails(spec: &CaseSpec) -> CrashSummary {
    const HEADER: usize = 24;
    const FRAME: usize = euler_wal::RECORD_PAYLOAD_LEN + 8;
    let log = write_log(spec);
    let rebuilds = prefix_rebuilds(spec, &log);
    let cfg = DurableConfig {
        checkpoint_every: None,
        ..DurableConfig::default()
    }
    .with_fsync(FsyncPolicy::Always);
    let mut summary = CrashSummary::default();

    // One full ingest; keep only the segment bytes.
    let seed_dir = scratch_dir("torn-seed", spec.seed, 0);
    let _ = std::fs::remove_dir_all(&seed_dir);
    {
        let (store, _) = DurableLive::open(&seed_dir, spec.grid(), cfg).expect("seed open");
        for op in &log {
            store.apply(*op).expect("seed ingest");
        }
    }
    let segment = std::fs::read(seed_dir.join("wal-000001.log")).expect("seed segment");
    let _ = std::fs::remove_dir_all(&seed_dir);
    assert_eq!(
        segment.len(),
        HEADER + FRAME * log.len(),
        "single-segment layout assumption"
    );

    let dir = scratch_dir("torn", spec.seed, 1);
    let run = |bytes: &[u8], expected: usize, context: &str, summary: &mut CrashSummary| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("wal-000001.log"), bytes).expect("scratch segment");
        verify_recovery(&dir, spec, cfg, expected, &rebuilds, context, summary);
    };

    for cut in 0..segment.len() {
        let expected = cut.saturating_sub(HEADER) / FRAME;
        run(
            &segment[..cut],
            expected,
            &format!("torn cut at byte {cut}"),
            &mut summary,
        );
    }
    // CRC-failing (rather than short) final record at each boundary.
    for k in 1..=log.len() {
        let end = HEADER + FRAME * k;
        let mut bytes = segment[..end].to_vec();
        *bytes.last_mut().expect("non-empty") ^= 0x01;
        run(
            &bytes,
            k - 1,
            &format!("flipped final byte of record {k}"),
            &mut summary,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Distribution;

    fn spec() -> CaseSpec {
        CaseSpec {
            seed: 19,
            dist: Distribution::Mixed,
            nx: 8,
            ny: 6,
            objects: 24,
        }
    }

    #[test]
    fn kill_points_recover_clean_without_checkpoints() {
        let summary = check_kill_points(&spec(), None);
        assert!(summary.is_clean(), "{:#?}", summary.violations);
        assert!(summary.recoveries_checked > 24);
    }

    #[test]
    fn kill_points_recover_clean_with_checkpoints() {
        let summary = check_kill_points(&spec(), Some(8));
        assert!(summary.is_clean(), "{:#?}", summary.violations);
    }

    #[test]
    fn torn_tails_recover_the_surviving_prefix() {
        let summary = check_torn_tails(&spec());
        assert!(summary.is_clean(), "{:#?}", summary.violations);
        // Every byte offset plus every flipped boundary.
        assert!(summary.recoveries_checked > 1000);
    }
}
