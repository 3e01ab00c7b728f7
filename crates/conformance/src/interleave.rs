//! The concurrent-interleaving law for the epoch-snapshot substrate
//! (`euler_core::snapshot`): **every answer a reader extracts from a
//! pinned [`LiveSnapshot`](euler_core::LiveSnapshot) equals a frozen rebuild of some prefix of the
//! write log** — the prefix named by the snapshot's `version()`.
//!
//! The law is what makes the LSM-style live histogram trustworthy under
//! concurrency: whatever interleaving of writes, seals, refreezes and
//! pins the scheduler produces, a reader can never observe a state that
//! is not a clean write-log prefix (no torn deltas, no half-applied
//! refreezes, no answers mixing two epochs).
//!
//! The check is scheduler-independent by construction: threads record
//! `(version, query, answer)` observations while running, and the
//! verdict is computed *after* all threads join, by rebuilding a frozen
//! histogram at each observed version and comparing bit-for-bit. The
//! same seed therefore passes (or fails) identically at any thread
//! count — the conformance gate runs it at 1, 4 and 8 readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use euler_core::snapshot::DeltaOp;
use euler_core::{s_euler_counts, EulerHistogram, LiveEulerHistogram, RelationCounts};
use euler_grid::{GridRect, SnappedRect};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::spec::CaseSpec;

/// Seal the memtable every this many delta ops — deliberately small so
/// short logs still exercise the sealed-run path.
const SEAL_EVERY: usize = 7;
/// The writer folds the delta and publishes a new epoch every this many
/// ops (plus once at the end), so readers race against refreezes too.
const REFREEZE_EVERY: usize = 13;

/// One reader observation: at write-log prefix `version`, query
/// `query` answered `got` (raw S-Euler algebra, unclamped).
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Write-log prefix length the pinned snapshot claimed.
    pub version: u64,
    /// The aligned query window answered.
    pub query: GridRect,
    /// The answer extracted from the pinned snapshot.
    pub got: RelationCounts,
}

/// Outcome of one interleaving run.
#[derive(Debug, Default)]
pub struct InterleaveSummary {
    /// Reader observations checked against prefix rebuilds.
    pub answers_checked: usize,
    /// Distinct write-log prefixes observed by readers.
    pub versions_observed: usize,
    /// Human-readable law violations (empty on success).
    pub violations: Vec<String>,
}

impl InterleaveSummary {
    /// True when every observation matched its prefix rebuild.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The seeded write log for a case: every generated object is inserted,
/// and ~30% of the time the insert is chased by a delete of a random
/// still-alive object — so prefixes cover empty deltas, delete-heavy
/// deltas and delete-of-same-delta-insert shapes.
pub fn write_log(spec: &CaseSpec) -> Vec<DeltaOp> {
    let objects = spec.snapped();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x11E4_1EAF);
    let mut alive: Vec<SnappedRect> = Vec::new();
    let mut log = Vec::with_capacity(objects.len() * 2);
    for o in objects {
        alive.push(o);
        log.push(DeltaOp::insert(o));
        if rng.gen_bool(0.3) {
            let idx = rng.gen_range(0..alive.len());
            log.push(DeltaOp::delete(alive.swap_remove(idx)));
        }
    }
    log
}

/// Rebuilds the frozen histogram equal to the first `version` entries of
/// `log` — the ground truth a pinned snapshot at that version must match.
fn rebuild_prefix(spec: &CaseSpec, log: &[DeltaOp], version: u64) -> EulerHistogram {
    let mut hist = EulerHistogram::new(spec.grid());
    for op in &log[..version as usize] {
        if op.sign > 0 {
            hist.insert(&op.rect);
        } else {
            hist.remove(&op.rect);
        }
    }
    hist
}

/// Runs one writer against `readers` concurrent reader threads over the
/// case's seeded write log, then verifies every recorded answer against
/// a frozen rebuild of the observed write-log prefix.
///
/// The writer applies the log one op at a time through
/// [`LiveEulerHistogram`] (seal every `SEAL_EVERY` = 7 ops, explicit
/// refreeze every `REFREEZE_EVERY` = 13 ops and once at the end). Each reader loops
/// until the writer finishes: pin, answer one seeded query from the
/// case's query plan, record the observation — no locks held while
/// answering. Readers take one final pin after the writer is done, so
/// the complete log is always among the verified prefixes.
pub fn check_interleaving(spec: &CaseSpec, readers: usize) -> InterleaveSummary {
    let log = write_log(spec);
    let queries = spec.queries();
    let live = LiveEulerHistogram::with_config(spec.grid(), SEAL_EVERY, None);
    let done = AtomicBool::new(false);
    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, op) in log.iter().enumerate() {
                live.apply(*op);
                if (i + 1) % REFREEZE_EVERY == 0 {
                    live.refreeze();
                }
            }
            live.refreeze();
            done.store(true, Ordering::Release);
        });
        for reader in 0..readers {
            let live = &live;
            let done = &done;
            let queries = &queries;
            let observations = &observations;
            let mut rng = StdRng::seed_from_u64(spec.seed ^ (0xC0FFEE + reader as u64));
            s.spawn(move || {
                let mut local = Vec::new();
                let mut finished = false;
                while !finished {
                    // One last pin after the writer signals completion,
                    // so the full-log prefix is always observed.
                    finished = done.load(Ordering::Acquire);
                    let snap = live.pin();
                    let q = queries[rng.gen_range(0..queries.len())];
                    local.push(Observation {
                        version: snap.version(),
                        query: q,
                        got: s_euler_counts(&*snap, &q),
                    });
                }
                observations
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });

    let observations = observations.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut summary = InterleaveSummary::default();
    let mut by_version: Vec<Observation> = observations;
    by_version.sort_by_key(|o| o.version);

    let mut frozen = None;
    let mut frozen_version = u64::MAX;
    for obs in &by_version {
        if obs.version != frozen_version {
            frozen = Some(rebuild_prefix(spec, &log, obs.version).freeze());
            frozen_version = obs.version;
            summary.versions_observed += 1;
        }
        let want = s_euler_counts(frozen.as_ref().expect("just rebuilt"), &obs.query);
        summary.answers_checked += 1;
        if want != obs.got {
            summary.violations.push(format!(
                "version {} query {}: pinned snapshot answered {:?}, \
                 frozen rebuild of the same write-log prefix answers {:?} \
                 (replay: {} readers={readers})",
                obs.version,
                obs.query,
                obs.got,
                want,
                spec.to_line(),
            ));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Distribution;

    fn spec() -> CaseSpec {
        CaseSpec {
            seed: 7,
            dist: Distribution::Mixed,
            nx: 8,
            ny: 6,
            objects: 48,
        }
    }

    #[test]
    fn write_log_is_deterministic_and_delete_safe() {
        let a = write_log(&spec());
        let b = write_log(&spec());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        assert!(a.iter().any(|op| op.sign < 0), "log exercises deletes");
        // Every prefix keeps a non-negative live count.
        let mut alive = 0i64;
        for op in &a {
            alive += op.sign;
            assert!(alive >= 0);
        }
    }

    #[test]
    fn single_reader_run_is_clean() {
        let summary = check_interleaving(&spec(), 1);
        assert!(summary.is_clean(), "{:#?}", summary.violations);
        assert!(summary.answers_checked > 0);
        assert!(summary.versions_observed > 0);
    }
}
