//! Seeded, replayable fault-injection conformance. Compiled only with
//! the `failpoints` feature (`cargo test -p euler-conformance --features
//! failpoints`): arms the engine's deterministic fail-point plans end to
//! end and holds every run to the resilience laws — `Complete` answers
//! bit-identical to the fault-free run, `Degraded` sweeps equal to the
//! per-tile loop, deadline overruns delivering a clean partial prefix.
//!
//! The base seed comes from `EULER_FAULT_SEED` (decimal or `0x`-hex),
//! mirroring `EULER_CONFORMANCE_SEED`; every test here is written to
//! pass for *any* seed, so the CI faults job can rotate it freely and a
//! failing seed is a complete reproduction recipe.
#![cfg(feature = "failpoints")]

use std::sync::Arc;
use std::time::Duration;

use euler_conformance::{CaseSpec, Distribution, EstimatorKind};
use euler_core::Level2Estimator;
use euler_engine::faults::{self, FaultKind, FaultPlan, FaultSite};
use euler_engine::{BatchOptions, EstimatorEngine, QueryBatch, SharedEstimator};
use euler_grid::GridRect;

/// Fallback seed when `EULER_FAULT_SEED` is unset.
const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// The active fault plan: env-seeded when `EULER_FAULT_SEED` is set,
/// [`DEFAULT_FAULT_SEED`] otherwise. Unparseable values fall back to the
/// default here (the round-trip test below asserts they error loudly;
/// tolerating them keeps these tests immune to its env churn).
fn env_plan() -> FaultPlan {
    FaultPlan::from_env()
        .ok()
        .flatten()
        .unwrap_or_else(|| FaultPlan::from_seed(DEFAULT_FAULT_SEED))
}

/// A sweep-capable fixture estimator plus a query plan padded to exactly
/// `n` queries (cycling the case plan), so an 8-thread engine fans out
/// into a known chunk layout.
fn fixture(n: usize) -> (SharedEstimator, Vec<GridRect>, CaseSpec) {
    let spec = CaseSpec {
        seed: 2002,
        dist: Distribution::Mixed,
        nx: 12,
        ny: 9,
        objects: 40,
    };
    let est = EstimatorKind::SEuler.build(&spec.grid(), &spec.snapped());
    let queries: Vec<GridRect> = spec.queries().iter().cycle().take(n).copied().collect();
    (est, queries, spec)
}

/// A seeded chunk panic fails exactly its own chunk; every other query
/// stays `Complete` and bit-identical to the fault-free run; disarming
/// restores clean runs; re-arming the same plan replays the same
/// outcome, bit for bit.
#[test]
fn seeded_chunk_panic_is_contained_and_replays() {
    faults::silence_injected_panics();
    let plan = env_plan();
    let chunk_point = plan
        .points
        .iter()
        .find(|p| p.site == FaultSite::Chunk)
        .expect("seeded plans arm a chunk point")
        .index;

    // 40 queries over 8 threads: chunk size 5, exactly 8 chunks, so any
    // seeded chunk index in 0..8 fires.
    let (est, queries, _) = fixture(40);
    let engine = EstimatorEngine::builder(est).threads(8).build();
    let baseline = engine.run_batch(&QueryBatch::new(&queries));
    assert!(baseline.is_complete(), "fault-free baseline must be clean");

    let guard = faults::install(plan.clone());
    let faulted = engine.run_batch(&QueryBatch::new(&queries));
    assert_eq!(faulted.errors.len(), 1, "exactly one chunk fails");
    assert_eq!(faulted.errors[0].chunk, chunk_point);
    for (i, outcome) in faulted.outcomes.iter().enumerate() {
        let in_blast = (chunk_point * 5..(chunk_point + 1) * 5).contains(&i);
        assert_eq!(
            outcome.is_failed(),
            in_blast,
            "query {i}: blast radius must be exactly chunk {chunk_point}"
        );
        if outcome.is_complete() {
            assert_eq!(
                faulted.counts[i], baseline.counts[i],
                "query {i}: Complete answers must match the fault-free run"
            );
        }
    }

    // Replay: the same plan produces the same outcome, bit for bit.
    let replayed = engine.run_batch(&QueryBatch::new(&queries));
    assert_eq!(replayed.counts, faulted.counts);
    assert_eq!(replayed.outcomes, faulted.outcomes);

    // Disarm: dropping the guard restores clean, identical runs.
    drop(guard);
    let clean = engine.run_batch(&QueryBatch::new(&queries));
    assert!(clean.is_complete());
    assert_eq!(clean.counts, baseline.counts);
}

/// A seeded sweep panic hits exactly the seeded dispatch: earlier tiling
/// batches sweep cleanly, the poisoned one degrades to the per-tile loop
/// with bit-identical counts, and later ones sweep cleanly again.
#[test]
fn seeded_sweep_panic_degrades_the_seeded_dispatch() {
    faults::silence_injected_panics();
    let sweep_point = env_plan()
        .points
        .iter()
        .find(|p| p.site == FaultSite::Sweep)
        .expect("seeded plans arm a sweep point")
        .index;
    // Arm only the sweep point: the degraded per-tile fallback must not
    // trip over the plan's unrelated chunk point.
    let plan = FaultPlan::new().with(FaultSite::Sweep, sweep_point, FaultKind::Panic);

    let (est, _, spec) = fixture(8);
    let grid = spec.grid();
    let tiling = euler_grid::Tiling::new(grid.full(), 4, 3).expect("tiling");
    let expected: Vec<_> = tiling.iter().map(|(_, t)| est.estimate(&t)).collect();
    let engine = EstimatorEngine::builder(Arc::clone(&est))
        .threads(1)
        .build();

    let _guard = faults::install(plan);
    for dispatch in 0..=sweep_point {
        let result = engine.run_batch(&QueryBatch::from(&tiling));
        assert_eq!(result.counts, expected, "dispatch {dispatch}");
        if dispatch == sweep_point {
            assert_eq!(result.degraded(), tiling.len(), "dispatch {dispatch}");
            assert_eq!(result.errors.len(), 1);
        } else {
            assert!(result.is_complete(), "dispatch {dispatch}");
        }
    }
}

/// A stall fail-point pushing one chunk past the deadline yields a clean
/// partial result: the stalled chunk fails, the other worker's answers
/// are delivered `Complete` and bit-identical to the fault-free run.
#[test]
fn stall_failpoint_forces_a_deadline_overrun_with_a_clean_prefix() {
    faults::silence_injected_panics();
    let plan = FaultPlan::new().with(FaultSite::Chunk, 0, FaultKind::StallMs(200));

    // 16 queries over 2 threads: chunk 0 covers 0..8 and stalls 200 ms;
    // chunk 1 covers 8..16 and finishes in microseconds, far inside the
    // 25 ms budget.
    let (est, queries, _) = fixture(16);
    let engine = EstimatorEngine::builder(est).threads(2).build();
    let baseline = engine.run_batch(&QueryBatch::new(&queries));
    let opts = BatchOptions::new().deadline(Duration::from_millis(25));

    let _guard = faults::install(plan);
    let result = engine.run_batch_with(&QueryBatch::new(&queries), &opts);
    assert!(!result.is_complete());
    assert_eq!(result.completed(), 8, "the unstalled chunk is delivered");
    for i in 8..16 {
        assert!(result.outcomes[i].is_complete(), "query {i}");
        assert_eq!(result.counts[i], baseline.counts[i], "query {i}");
    }
    for i in 0..8 {
        assert!(result.outcomes[i].is_failed(), "query {i}");
    }
}

/// `EULER_FAULT_SEED` round-trips: decimal and hex parse to the same
/// plans as [`FaultPlan::from_seed`], and a malformed value is a loud
/// error naming the variable.
#[test]
fn fault_seed_env_round_trips() {
    // Serialize against the other fail-point tests (they read the same
    // variable through `env_plan`); the installed guard holds the
    // process-wide fail-point lock. An unarmed empty plan is inert.
    let _guard = faults::install(FaultPlan::new());
    let original = std::env::var(faults::FAULT_SEED_ENV).ok();

    std::env::set_var(faults::FAULT_SEED_ENV, "42");
    assert_eq!(
        FaultPlan::from_env().expect("decimal parses"),
        Some(FaultPlan::from_seed(42))
    );
    std::env::set_var(faults::FAULT_SEED_ENV, "0xFA17");
    assert_eq!(
        FaultPlan::from_env().expect("hex parses"),
        Some(FaultPlan::from_seed(0xFA17))
    );
    std::env::set_var(faults::FAULT_SEED_ENV, "not-a-seed");
    let err = FaultPlan::from_env().expect_err("malformed value is an error");
    assert!(err.contains(faults::FAULT_SEED_ENV), "{err}");

    match original {
        Some(v) => std::env::set_var(faults::FAULT_SEED_ENV, v),
        None => std::env::remove_var(faults::FAULT_SEED_ENV),
    }
}

/// The whole differential battery — including the resilience laws wired
/// into `run_case` — stays clean while an armed stall plan slows (but
/// cannot corrupt) a run: fault handling must never change answers.
#[test]
fn run_case_stays_clean_under_an_armed_stall() {
    faults::silence_injected_panics();
    let _guard = faults::install(FaultPlan::new().with(FaultSite::Chunk, 1, FaultKind::StallMs(1)));
    let spec = CaseSpec {
        seed: 11,
        dist: Distribution::Uniform,
        nx: 6,
        ny: 4,
        objects: 10,
    };
    let outcome = euler_conformance::run_case(&spec);
    assert!(outcome.is_clean(), "{:#?}", outcome.violations);
}
