//! Fault-injection tests (only with `--features failpoints`): armed
//! `Wal*` fail-points must fail the op, poison the log, and leave a
//! directory that recovers to a consistent acknowledged prefix.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;

use euler_core::{DeltaOp, EulerHistogram, FrozenEulerHistogram};
use euler_engine::faults::{install, FaultKind, FaultPlan, FaultSite};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, SnappedRect, Snapper};
use euler_wal::{DurableConfig, DurableLive};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn grid(nx: usize, ny: usize) -> Grid {
    Grid::new(
        DataSpace::new(Rect::new(0.0, 0.0, nx as f64, ny as f64).unwrap()),
        nx,
        ny,
    )
    .unwrap()
}

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

fn rebuild(g: Grid, log: &[DeltaOp]) -> FrozenEulerHistogram {
    let mut h = EulerHistogram::new(g);
    h.apply_signed_batch(log.iter().map(|op| (&op.rect, op.sign)));
    h.freeze()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("euler-wal-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `log` against a store with `plan` armed, "killing" the process
/// at the first error; then recovers with the plan disarmed and checks
/// the crash law: every acknowledged op survived, and the recovered
/// state is a frozen rebuild of an attempted-order prefix (a failed
/// fsync may leave the in-flight record durable, so the prefix may run
/// one record past the acknowledged count — never a gap, never a
/// reorder).
fn kill_and_recover(tag: &str, plan: FaultPlan, cfg: DurableConfig, seed: u64) {
    let dir = temp_dir(tag);
    let g = grid(10, 8);
    let log = write_log(&g, 24, seed);
    let mut acked = 0usize;
    let mut failed = false;
    {
        let _guard = install(plan);
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        for op in &log {
            match store.apply(*op) {
                Ok(_) => acked += 1,
                Err(_) => {
                    failed = true;
                    // Poisoned: every later op must fail fast too.
                    assert!(store.apply(log[0]).is_err(), "{tag}: not poisoned");
                    break;
                }
            }
        }
        // `store` is dropped mid-flight — the simulated kill.
    }
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    let recovered = store.version() as usize;
    assert!(
        recovered >= acked && recovered <= acked + usize::from(failed),
        "{tag}: acked {acked}, recovered {recovered}"
    );
    assert_eq!(
        *store.live().refreeze().frozen().as_ref(),
        rebuild(g, &log[..recovered]),
        "{tag}: recovered state is not the prefix rebuild"
    );
    assert_eq!(report.version as usize, recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_append_kills_the_op_and_recovery_drops_the_tail() {
    // Tear the 4th append after 0, 17, and 48 of its 49 frame bytes.
    for torn_bytes in [0u64, 17, 48] {
        kill_and_recover(
            &format!("torn-append-{torn_bytes}"),
            FaultPlan::new().with(FaultSite::WalAppend, 3, FaultKind::ShortWrite(torn_bytes)),
            DurableConfig::default(),
            41,
        );
    }
}

#[test]
fn append_io_error_poisons_and_recovers_the_acked_prefix() {
    kill_and_recover(
        "append-io",
        FaultPlan::new().with(FaultSite::WalAppend, 5, FaultKind::IoError),
        DurableConfig::default(),
        42,
    );
}

#[test]
fn fsync_failure_poisons_and_recovery_stays_a_prefix() {
    kill_and_recover(
        "fsync-io",
        FaultPlan::new().with(FaultSite::WalFsync, 7, FaultKind::IoError),
        DurableConfig::default(),
        43,
    );
}

#[test]
fn seeded_wal_plans_kill_and_recover_cleanly() {
    for seed in 0..32u64 {
        kill_and_recover(
            &format!("seeded-{seed}"),
            FaultPlan::wal_from_seed(seed),
            DurableConfig::default(),
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }
}

#[test]
fn checkpoint_fault_fails_the_checkpoint_but_not_the_ingest() {
    let dir = temp_dir("ckpt-fault");
    let g = grid(10, 8);
    let log = write_log(&g, 30, 44);
    let cfg = DurableConfig {
        checkpoint_every: Some(10),
        ..DurableConfig::default()
    };
    {
        let _guard = install(
            FaultPlan::new()
                .with(FaultSite::WalCheckpoint, 0, FaultKind::IoError)
                .with(FaultSite::WalCheckpoint, 1, FaultKind::ShortWrite(100)),
        );
        let (store, _) = DurableLive::open(&dir, g, cfg).unwrap();
        // Every apply must succeed: auto-checkpoint failures are
        // swallowed (the WAL holds the records), only counted.
        for op in &log {
            store.apply(*op).unwrap();
        }
        assert_eq!(store.checkpoint_failures(), 2);
        assert!(store.last_checkpoint_error().unwrap().contains("injected"));
        // The third auto-checkpoint (index 2, unarmed) succeeded.
        assert_eq!(store.version(), 30);
    }
    let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
    assert_eq!(report.version, 30);
    assert_eq!(*store.live().refreeze().frozen().as_ref(), rebuild(g, &log));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_seeding_leaves_an_empty_store_then_reseeds_completely() {
    let dir = temp_dir("seed-fault");
    let g = grid(11, 7);
    let objects: Vec<SnappedRect> = write_log(&g, 50, 45)
        .into_iter()
        .filter(|op| op.sign > 0)
        .map(|op| op.rect)
        .collect();
    let cfg = DurableConfig::default();
    for kind in [FaultKind::IoError, FaultKind::ShortWrite(40)] {
        let guard = install(FaultPlan::new().with(FaultSite::WalCheckpoint, 0, kind));
        assert!(DurableLive::open_seeded(&dir, g, cfg, &objects).is_err());
        drop(guard);
        // Nothing was installed: the store recovers empty.
        let (store, report) = DurableLive::open(&dir, g, cfg).unwrap();
        assert_eq!(report.version, 0);
        assert!(store.is_empty());
    }
    let (store, report) = DurableLive::open_seeded(&dir, g, cfg, &objects).unwrap();
    assert_eq!(report.version, objects.len() as u64);
    assert_eq!(
        *store.live().refreeze().frozen().as_ref(),
        EulerHistogram::build(g, &objects).freeze()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
