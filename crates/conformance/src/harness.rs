//! The differential runner: builds all nine `Level2Estimator`
//! implementations for a case, executes them through the
//! [`EstimatorEngine`], and checks every estimate against the naive-scan
//! oracle under the invariant catalogue. Structural laws that go beyond a
//! single estimate — dynamic insert/delete replay, persistence
//! round-trips, and the browse API — are checked per case as well.

use std::sync::Arc;
use std::time::Duration;

use euler_baselines::{BtHistogram, CdHistogram, MinSkew, NaiveScan, RTreeOracle};
use euler_browse::{
    BrowseRequest, BrowseSession, DynamicGeoBrowsingService, GeoBrowsingService, PyramidBrowser,
};
use euler_core::model::count_by_classification;
use euler_core::{
    EulerApprox, EulerHistogram, ExactContains2D, Level2Estimator, LiveEulerHistogram, LiveSEuler,
    MEulerApprox, RelationCounts, SEulerApprox,
};
use euler_engine::{BatchOptions, EstimatorEngine, QueryBatch, SharedEstimator};
use euler_grid::{Grid, GridRect, SnappedRect, Tiling};

use crate::fault::{PanickingEstimator, SweepPanickingEstimator};
use crate::invariants::{
    check_estimate, check_s_euler_conditional, check_sweep_equivalence, ExactnessClass, Violation,
};
use crate::spec::CaseSpec;

/// Bucket budget handed to Min-skew in conformance builds.
const MINSKEW_BUDGET: usize = 16;

/// Area-class boundaries (in cells) handed to M-EulerApprox.
const MEULER_BOUNDARIES: [f64; 2] = [9.0, 100.0];

/// The nine estimators under conformance, by construction recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// S-EulerApprox over a frozen Euler histogram (§5.2).
    SEuler,
    /// EulerApprox with the interior–exterior equation solver (§5.3).
    Euler,
    /// M-EulerApprox: per-area-class histograms (§5.4).
    MEuler,
    /// The Theorem 3.1 exact-contains structure (four prefix indexes).
    Exact4Idx,
    /// Cumulative Density \[JAS00\] — exact Level 1.
    Cd,
    /// Beigel–Tanin histogram — exact Level 1.
    Bt,
    /// Min-skew \[APR99\] — approximate Level 1.
    MinSkewKind,
    /// Naive scan over the snapped objects (the oracle itself, kept in
    /// the matrix so the oracle is validated against its own laws).
    Naive,
    /// R-tree with exact per-object classification.
    RTree,
}

impl EstimatorKind {
    /// Every estimator in the workspace, in a fixed order.
    pub const ALL: [EstimatorKind; 9] = [
        EstimatorKind::SEuler,
        EstimatorKind::Euler,
        EstimatorKind::MEuler,
        EstimatorKind::Exact4Idx,
        EstimatorKind::Cd,
        EstimatorKind::Bt,
        EstimatorKind::MinSkewKind,
        EstimatorKind::Naive,
        EstimatorKind::RTree,
    ];

    /// The `Level2Estimator::name()` this kind must report — a mismatch is
    /// itself a conformance failure.
    pub fn expected_name(&self) -> &'static str {
        match self {
            EstimatorKind::SEuler => "S-EulerApprox",
            EstimatorKind::Euler => "EulerApprox",
            EstimatorKind::MEuler => "M-EulerApprox",
            EstimatorKind::Exact4Idx => "Exact-4idx",
            EstimatorKind::Cd => "CD",
            EstimatorKind::Bt => "Beigel-Tanin",
            EstimatorKind::MinSkewKind => "Min-skew",
            EstimatorKind::Naive => "NaiveScan",
            EstimatorKind::RTree => "R-tree (exact)",
        }
    }

    /// The guarantee class this estimator is held to.
    pub fn class(&self) -> ExactnessClass {
        match self {
            EstimatorKind::SEuler | EstimatorKind::Euler | EstimatorKind::MEuler => {
                ExactnessClass::ApproxLevel2
            }
            EstimatorKind::Exact4Idx | EstimatorKind::Naive | EstimatorKind::RTree => {
                ExactnessClass::ExactLevel2
            }
            EstimatorKind::Cd | EstimatorKind::Bt => ExactnessClass::ExactLevel1,
            EstimatorKind::MinSkewKind => ExactnessClass::ApproxLevel1,
        }
    }

    /// Builds the estimator for a dataset, type-erased for the engine.
    pub fn build(&self, grid: &Grid, objects: &[SnappedRect]) -> SharedEstimator {
        match self {
            EstimatorKind::SEuler => Arc::new(SEulerApprox::new(
                EulerHistogram::build(*grid, objects).freeze(),
            )),
            EstimatorKind::Euler => Arc::new(EulerApprox::new(
                EulerHistogram::build(*grid, objects).freeze(),
            )),
            EstimatorKind::MEuler => {
                Arc::new(MEulerApprox::build(*grid, objects, &MEULER_BOUNDARIES))
            }
            EstimatorKind::Exact4Idx => Arc::new(ExactContains2D::build(grid, objects)),
            EstimatorKind::Cd => Arc::new(CdHistogram::build(grid, objects)),
            EstimatorKind::Bt => Arc::new(BtHistogram::build(*grid, objects)),
            EstimatorKind::MinSkewKind => Arc::new(MinSkew::build(grid, objects, MINSKEW_BUDGET)),
            EstimatorKind::Naive => Arc::new(NaiveScan::new(objects.to_vec())),
            EstimatorKind::RTree => Arc::new(RTreeOracle::build(objects)),
        }
    }
}

/// The outcome of one case: how many estimator×query comparisons ran and
/// every violated law.
#[derive(Debug, Default)]
pub struct CaseOutcome {
    /// Differential comparisons performed (one per estimator per query).
    pub comparisons: usize,
    /// Violations found, in discovery order.
    pub violations: Vec<Violation>,
}

impl CaseOutcome {
    /// Did every law hold?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full conformance battery for one case: the nine-estimator
/// differential matrix through the engine (with varying thread counts so
/// the fan-out path is itself under test), the S-EulerApprox conditional
/// exactness law, the engine resilience laws under injected panics
/// ([`check_fault_resilience`]), dynamic replay, persistence round-trips,
/// and the browse API.
pub fn run_case(spec: &CaseSpec) -> CaseOutcome {
    let grid = spec.grid();
    let objects = spec.snapped();
    let queries = spec.queries();
    let oracle: Vec<RelationCounts> = queries
        .iter()
        .map(|q| count_by_classification(&objects, q))
        .collect();
    let mut outcome = CaseOutcome::default();

    differential_matrix(&grid, &objects, &queries, &oracle, &mut outcome);
    check_compressed_tier(&grid, &objects, &mut outcome.violations);
    check_parallel_sweep(&grid, &objects, &mut outcome.violations);
    check_dynamic_replay(spec, &grid, &objects, &queries, &mut outcome.violations);
    check_persist_round_trip(&grid, &objects, &queries, &mut outcome.violations);
    check_browse_api(spec, &grid, &queries, &oracle, &mut outcome.violations);
    check_pyramid_dispatch(spec, &grid, &mut outcome.violations);
    outcome
}

/// The core differential loop shared by [`run_case`] and the
/// fault-injection tests.
pub fn differential_matrix(
    grid: &Grid,
    objects: &[SnappedRect],
    queries: &[GridRect],
    oracle: &[RelationCounts],
    outcome: &mut CaseOutcome,
) {
    let n = objects.len() as i64;
    for (ki, kind) in EstimatorKind::ALL.iter().enumerate() {
        let est = kind.build(grid, objects);
        if est.name() != kind.expected_name() {
            outcome.violations.push(Violation {
                estimator: est.name().to_string(),
                law: "estimator reports its registered name",
                query: grid.full(),
                got: RelationCounts::default(),
                oracle: RelationCounts::default(),
            });
        }
        if est.object_count() != objects.len() as u64 {
            outcome.violations.push(Violation {
                estimator: est.name().to_string(),
                law: "object_count matches dataset size",
                query: grid.full(),
                got: RelationCounts::new(est.object_count() as i64, 0, 0, 0),
                oracle: RelationCounts::new(n, 0, 0, 0),
            });
        }
        // Sweep-equivalence law: estimate_tiling (the amortized sweep
        // evaluator where supported, the default loop elsewhere) must be
        // bit-identical to the per-tile loop on every tiling shape.
        for tiling in sweep_tilings(grid) {
            check_sweep_equivalence(kind.expected_name(), &est, &tiling, &mut outcome.violations);
            outcome.comparisons += tiling.len();
        }
        // Cycle thread counts 1..=3 across estimators so sequential and
        // fan-out engine paths both face the oracle.
        let engine = EstimatorEngine::builder(Arc::clone(&est))
            .threads(ki % 3 + 1)
            .build();
        let result = engine.run_batch(&QueryBatch::new(queries));
        for ((q, got), want) in queries.iter().zip(&result.counts).zip(oracle) {
            outcome.comparisons += 1;
            check_estimate(
                kind.expected_name(),
                kind.class(),
                q,
                got,
                want,
                n,
                &mut outcome.violations,
            );
            if *kind == EstimatorKind::SEuler {
                check_s_euler_conditional(q, got, want, objects, &mut outcome.violations);
            }
        }
        // Resilience laws: the clean batch above is the fault-free
        // baseline (this check adds no differential comparisons — the
        // accounting tests rely on that).
        let tiling = &sweep_tilings(grid)[0];
        check_fault_resilience(
            kind.expected_name(),
            &est,
            queries,
            &result.counts,
            tiling,
            &mut outcome.violations,
        );
    }
}

/// The resilience laws the engine's degradation ladder must satisfy for
/// every estimator, checked with the injected-defect wrappers:
///
/// 1. **Panic isolation.** With one query poisoned to panic the worker,
///    every query the engine still reports [`Complete`] must be
///    bit-identical to the fault-free `baseline`, and the poisoned query
///    must *not* be reported `Complete`.
/// 2. **Lossless degradation.** With the sweep kernel poisoned, a tiling
///    batch must come back [`Degraded`] — not failed — and equal the
///    per-tile loop bit-for-bit (the sweep-equivalence law is exactly
///    what licenses this fallback).
/// 3. **Armed controls change nothing.** Under a far-off deadline, a
///    tiling batch at one and two threads must come back all
///    [`Complete`] and equal the per-tile loop bit-for-bit — the deadline
///    is checked before the batch starts, not by taking a different
///    path.
///
/// [`Complete`]: euler_engine::BatchOutcome::Complete
/// [`Degraded`]: euler_engine::BatchOutcome::Degraded
pub fn check_fault_resilience(
    name: &str,
    est: &SharedEstimator,
    queries: &[GridRect],
    baseline: &[RelationCounts],
    tiling: &Tiling,
    out: &mut Vec<Violation>,
) {
    if queries.is_empty() {
        return;
    }
    euler_engine::faults::silence_injected_panics();

    // Law 1: poison one mid-plan query; the blast radius is its chunk.
    let poison = queries[queries.len() / 2];
    let faulty: SharedEstimator = Arc::new(PanickingEstimator::new(Arc::clone(est), poison));
    let engine = EstimatorEngine::builder(faulty).threads(2).build();
    let result = engine.run_batch(&QueryBatch::new(queries));
    for (i, q) in queries.iter().enumerate() {
        if result.outcomes[i].is_complete() {
            if *q == poison {
                out.push(Violation {
                    estimator: format!("{name} (panic-isolation)"),
                    law: "poisoned query is not reported Complete",
                    query: *q,
                    got: result.counts[i],
                    oracle: baseline[i],
                });
            } else if result.counts[i] != baseline[i] {
                out.push(Violation {
                    estimator: format!("{name} (panic-isolation)"),
                    law: "Complete outcome = fault-free run, bit-identical",
                    query: *q,
                    got: result.counts[i],
                    oracle: baseline[i],
                });
            }
        }
    }

    // Law 2: poison the sweep kernel; the tiling batch must degrade to
    // the per-tile loop, bit-for-bit.
    let sweep_faulty: SharedEstimator = Arc::new(SweepPanickingEstimator::new(Arc::clone(est)));
    let engine = EstimatorEngine::builder(sweep_faulty).threads(1).build();
    let result = engine.run_batch(&QueryBatch::from(tiling));
    for (((_, tile), got), o) in tiling.iter().zip(&result.counts).zip(&result.outcomes) {
        if !o.is_degraded() {
            out.push(Violation {
                estimator: format!("{name} (sweep-degradation)"),
                law: "poisoned sweep degrades to the loop, not to failure",
                query: tile,
                got: *got,
                oracle: est.estimate(&tile),
            });
            continue;
        }
        let want = est.estimate(&tile);
        if *got != want {
            out.push(Violation {
                estimator: format!("{name} (sweep-degradation)"),
                law: "Degraded sweep fallback = per-tile loop, bit-identical",
                query: tile,
                got: *got,
                oracle: want,
            });
        }
    }

    // Law 3: armed, untripped controls; the batch must match the loop.
    let opts = BatchOptions::new().deadline(Duration::from_secs(3600));
    for threads in [1, 2] {
        let engine = EstimatorEngine::builder(Arc::clone(est))
            .threads(threads)
            .build();
        let result = engine.run_batch_with(&QueryBatch::from(tiling), &opts);
        for (((_, tile), got), o) in tiling.iter().zip(&result.counts).zip(&result.outcomes) {
            let want = est.estimate(&tile);
            if !o.is_complete() || *got != want {
                out.push(Violation {
                    estimator: format!("{name} (armed-controls, threads={threads})"),
                    law: "armed controls: Complete and = per-tile loop, bit-identical",
                    query: tile,
                    got: *got,
                    oracle: want,
                });
            }
        }
    }
}

/// The tiling shapes the sweep-equivalence law is checked on: a coarse
/// full-grid browse, a finer full-grid browse, and (when the grid allows)
/// an offset interior subregion — the shape that catches boundary-clamp
/// bugs in the sweep kernels. Public so the suite's accounting tests can
/// predict exactly how many comparisons a case performs.
pub fn sweep_tilings(grid: &Grid) -> Vec<Tiling> {
    let mut tilings = vec![
        Tiling::new(grid.full(), grid.nx().min(4), grid.ny().min(3))
            .expect("coarse tiling within a >=2x2 grid"),
        Tiling::new(grid.full(), grid.nx().min(7), grid.ny().min(5))
            .expect("fine tiling within a >=2x2 grid"),
    ];
    if grid.nx() >= 4 && grid.ny() >= 4 {
        let sub = GridRect::unchecked(1, 1, grid.nx() - 1, grid.ny() - 1);
        tilings.push(
            Tiling::new(sub, (grid.nx() - 2).min(3), (grid.ny() - 2).min(2))
                .expect("subregion tiling within its region"),
        );
    }
    tilings
}

/// Compressed-tier law: a histogram frozen onto the run-compressed cube
/// must be **bit-identical** to the dense freeze — per-tile point
/// estimates for both Euler-family estimators and the amortized sweep
/// evaluator, on every sweep-law tiling shape. This is the contract that
/// lets the freeze heuristic pick a tier per dataset without any caller
/// noticing. Adds no differential comparisons (the accounting tests rely
/// on that).
fn check_compressed_tier(grid: &Grid, objects: &[SnappedRect], out: &mut Vec<Violation>) {
    let hist = EulerHistogram::build(*grid, objects);
    let pairs: [(&str, SharedEstimator, SharedEstimator); 2] = [
        (
            "S-EulerApprox",
            Arc::new(SEulerApprox::new(hist.freeze_dense())),
            Arc::new(SEulerApprox::new(hist.freeze_compressed())),
        ),
        (
            "EulerApprox",
            Arc::new(EulerApprox::new(hist.freeze_dense())),
            Arc::new(EulerApprox::new(hist.freeze_compressed())),
        ),
    ];
    for (name, dense, comp) in &pairs {
        for tiling in sweep_tilings(grid) {
            for (_, tile) in tiling.iter() {
                let want = dense.estimate(&tile);
                let got = comp.estimate(&tile);
                if got != want {
                    out.push(Violation {
                        estimator: format!("{name} (compressed-tier)"),
                        law: "compressed tier = dense tier, bit-identical",
                        query: tile,
                        got,
                        oracle: want,
                    });
                }
            }
            let (dense_counts, dense_total) = dense.estimate_tiling_total(&tiling);
            let (comp_counts, comp_total) = comp.estimate_tiling_total(&tiling);
            if dense_counts != comp_counts || dense_total != comp_total {
                out.push(Violation {
                    estimator: format!("{name} (compressed-tier sweep)"),
                    law: "compressed-tier sweep = dense-tier sweep, bit-identical",
                    query: tiling.region(),
                    got: comp_total,
                    oracle: dense_total,
                });
            }
        }
    }
}

/// Parallel-sweep law: a tiling-shaped batch through the engine must be
/// bit-identical to the per-tile loop at every thread width — the band
/// split (whole tile rows, remainder row alone) is exact geometry, not
/// an approximation. Adds no differential comparisons.
fn check_parallel_sweep(grid: &Grid, objects: &[SnappedRect], out: &mut Vec<Violation>) {
    let est: SharedEstimator = Arc::new(SEulerApprox::new(
        EulerHistogram::build(*grid, objects).freeze(),
    ));
    for tiling in sweep_tilings(grid) {
        let baseline: Vec<RelationCounts> = tiling.iter().map(|(_, t)| est.estimate(&t)).collect();
        for threads in [1usize, 2, 4] {
            let engine = EstimatorEngine::builder(Arc::clone(&est))
                .threads(threads)
                .build();
            let result = engine.run_batch(&QueryBatch::from(&tiling));
            for (((_, tile), got), want) in tiling.iter().zip(&result.counts).zip(&baseline) {
                if got != want {
                    out.push(Violation {
                        estimator: format!("parallel-sweep[threads={threads}]"),
                        law: "banded sweep = per-tile loop, bit-identical",
                        query: tile,
                        got: *got,
                        oracle: *want,
                    });
                }
            }
        }
    }
}

/// Seal cadence of the replay law's live histogram: small enough that
/// even a few objects' churn crosses several seals.
const REPLAY_SEAL_EVERY: usize = 7;
/// Refreeze cadence of the replay law: not a multiple of
/// [`REPLAY_SEAL_EVERY`], so folds land mid-run as well as on seals.
const REPLAY_REFREEZE_EVERY: usize = 13;

/// Live insert/delete replay must agree with a frozen rebuild: insert
/// all objects, remove every third, re-insert them — crossing seals and
/// refreezes on the way — and compare the live S-Euler estimates
/// against a freshly built frozen histogram on every query.
fn check_dynamic_replay(
    spec: &CaseSpec,
    grid: &Grid,
    objects: &[SnappedRect],
    queries: &[GridRect],
    out: &mut Vec<Violation>,
) {
    if objects.is_empty() {
        return;
    }
    let live =
        LiveEulerHistogram::with_config(*grid, REPLAY_SEAL_EVERY, Some(REPLAY_REFREEZE_EVERY));
    for o in objects {
        live.insert(o);
    }
    // Churn: remove every third object, then put it back. The end state
    // must be indistinguishable from a cold build.
    for o in objects.iter().step_by(3) {
        live.remove(o);
    }
    for o in objects.iter().step_by(3) {
        live.insert(o);
    }
    let dynamic = LiveSEuler::new(live.pin());
    let frozen = SEulerApprox::new(EulerHistogram::build(*grid, objects).freeze());
    for q in queries {
        let got = dynamic.estimate(q);
        let want = frozen.estimate(q);
        if got != want {
            out.push(Violation {
                estimator: format!("dynamic-replay[{}]", spec.to_line()),
                law: "live insert/delete replay = frozen rebuild",
                query: *q,
                got,
                oracle: want,
            });
        }
    }
}

/// Persisted histograms must round-trip losslessly through both codecs:
/// the revived histogram's estimates must equal the original's on every
/// query.
fn check_persist_round_trip(
    grid: &Grid,
    objects: &[SnappedRect],
    queries: &[GridRect],
    out: &mut Vec<Violation>,
) {
    let hist = EulerHistogram::build(*grid, objects);
    let original = SEulerApprox::new(hist.freeze());
    for (codec, bytes) in [
        ("persist-raw", hist.to_bytes()),
        ("persist-compressed", hist.to_bytes_compressed()),
    ] {
        let revived = match EulerHistogram::from_bytes(&bytes) {
            Ok(h) => h,
            Err(e) => {
                out.push(Violation {
                    estimator: format!("{codec}: {e}"),
                    law: "persist round-trip decodes",
                    query: grid.full(),
                    got: RelationCounts::default(),
                    oracle: RelationCounts::default(),
                });
                continue;
            }
        };
        // Tier independence: persistence stores raw buckets, so the
        // revived histogram must freeze onto the identical compressed
        // cube the original does.
        if revived.freeze_compressed() != hist.freeze_compressed() {
            out.push(Violation {
                estimator: format!("{codec} (compressed freeze)"),
                law: "revived buckets freeze to the identical compressed cube",
                query: grid.full(),
                got: RelationCounts::default(),
                oracle: RelationCounts::default(),
            });
        }
        let revived = SEulerApprox::new(revived.freeze());
        for q in queries {
            let got = revived.estimate(q);
            let want = original.estimate(q);
            if got != want {
                out.push(Violation {
                    estimator: codec.to_string(),
                    law: "persist round-trip lossless",
                    query: *q,
                    got,
                    oracle: want,
                });
            }
        }
    }
}

/// The browse API is the user-facing surface: browsing any tiling must
/// return, per tile, the clamped estimate of a pinned view — and
/// therefore satisfy the same Euler-family laws against the oracle
/// (clamped). Written once against [`BrowseSession`], checked for both
/// service profiles (refreeze-on-read and pin-current).
fn check_browse_api(
    spec: &CaseSpec,
    grid: &Grid,
    queries: &[GridRect],
    oracle: &[RelationCounts],
    out: &mut Vec<Violation>,
) {
    // The pin-current session ingests one insert at a time, so its pins
    // answer from the live delta rather than a bulk-built frozen cube.
    let pin_current = DynamicGeoBrowsingService::new(*grid);
    for r in &spec.rects() {
        pin_current.insert(r);
    }
    let sessions: Vec<Box<dyn BrowseSession>> = vec![
        Box::new(GeoBrowsingService::with_objects(*grid, spec.rects())),
        Box::new(pin_current),
    ];
    let tiling = Tiling::new(grid.full(), spec.nx.min(4), spec.ny.min(3))
        .expect("tiling within a >=2x2 grid");
    for session in &sessions {
        let name = session.session_name();
        let pinned = session.pin_session();
        for threads in [1, 3] {
            let result = session.browse(&tiling, &BrowseRequest::new().threads(threads));
            for ((_, tile), got) in tiling.iter().zip(result.counts()) {
                let want = pinned.estimator().estimate(&tile).clamped();
                if *got != want {
                    out.push(Violation {
                        estimator: format!("{name}[threads={threads}]"),
                        law: "browse tile = clamped pinned estimate",
                        query: tile,
                        got: *got,
                        oracle: want,
                    });
                }
            }
        }
        // The pinned estimator itself must satisfy the Euler-family laws
        // on the case's query plan (the service snapped the same raw
        // rects), regardless of read policy.
        let n = session.len() as i64;
        for (q, want) in queries.iter().zip(oracle) {
            check_estimate(
                "browse-session",
                ExactnessClass::ApproxLevel2,
                q,
                &pinned.estimator().estimate(q),
                want,
                n,
                out,
            );
        }
    }
}

/// Pyramid-dispatch law: a browse served from a coarse pyramid level
/// must equal the same tiling answered at the finest level, count for
/// count — every level folds out of one finest-grid lineage, so the
/// dispatch level is unobservable. Skipped when the case grid cannot
/// halve (odd or tiny dims leave a single-level ladder).
fn check_pyramid_dispatch(spec: &CaseSpec, grid: &Grid, out: &mut Vec<Violation>) {
    let (nx, ny) = (grid.nx(), grid.ny());
    if nx < 4 || ny < 4 || nx % 2 != 0 || ny % 2 != 0 {
        return;
    }
    let rects = spec.rects();
    let region = grid.space().bounds();
    let (cols, rows) = (nx / 2, ny / 2);
    let browse = |levels: usize| {
        PyramidBrowser::new(*grid.space(), nx, ny, levels, rects.clone())
            .expect("validated dims")
            .browse(region, cols, rows)
    };
    match (browse(2), browse(1)) {
        (Ok((coarse, coarse_level)), Ok((fine, fine_level))) => {
            if coarse_level == fine_level {
                out.push(Violation {
                    estimator: "pyramid-dispatch".into(),
                    law: "half-resolution tiling dispatches to a coarse level",
                    query: grid.full(),
                    got: RelationCounts::default(),
                    oracle: RelationCounts::default(),
                });
            }
            for col in 0..cols {
                for row in 0..rows {
                    let (got, want) = (*coarse.get(col, row), *fine.get(col, row));
                    if got != want {
                        out.push(Violation {
                            estimator: format!("pyramid-dispatch[tile=({col},{row})]"),
                            law: "coarse-level browse = finest-level browse, bit-identical",
                            query: grid.full(),
                            got,
                            oracle: want,
                        });
                    }
                }
            }
        }
        (coarse, fine) => {
            out.push(Violation {
                estimator: format!(
                    "pyramid-dispatch: coarse={:?} fine={:?}",
                    coarse.as_ref().err(),
                    fine.as_ref().err()
                ),
                law: "full-region half-resolution browse aligns on some level",
                query: grid.full(),
                got: RelationCounts::default(),
                oracle: RelationCounts::default(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Distribution;

    #[test]
    fn all_nine_kinds_build_and_report_their_names() {
        let spec = CaseSpec {
            seed: 1,
            dist: Distribution::Uniform,
            nx: 6,
            ny: 4,
            objects: 12,
        };
        let grid = spec.grid();
        let objects = spec.snapped();
        let names: Vec<&str> = EstimatorKind::ALL
            .iter()
            .map(|k| k.build(&grid, &objects).name())
            .collect();
        assert_eq!(
            names,
            EstimatorKind::ALL
                .iter()
                .map(|k| k.expected_name())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_small_case_is_clean() {
        let spec = CaseSpec {
            seed: 42,
            dist: Distribution::Mixed,
            nx: 8,
            ny: 6,
            objects: 25,
        };
        let outcome = run_case(&spec);
        assert!(outcome.comparisons >= 9 * 20);
        assert!(outcome.is_clean(), "violations: {:#?}", outcome.violations);
    }

    #[test]
    fn empty_dataset_is_clean() {
        let spec = CaseSpec {
            seed: 3,
            dist: Distribution::Points,
            nx: 4,
            ny: 4,
            objects: 0,
        };
        let outcome = run_case(&spec);
        assert!(outcome.is_clean(), "{:#?}", outcome.violations);
    }
}
