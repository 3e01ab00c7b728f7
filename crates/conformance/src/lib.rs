//! # euler-conformance — the differential conformance harness
//!
//! Continuously validates every `Level2Estimator` in the workspace
//! against the naive-scan oracle on seeded, deterministic random cases,
//! in the spirit of RADON's bulk verification of topological relations:
//! approximations are only trustworthy while an exact join keeps agreeing
//! with them.
//!
//! The harness has six parts:
//!
//! - [`spec`] — seeded generation of datasets (uniform, clustered,
//!   degenerate points/segments, boundary-snapped) and query plans
//!   (`Q₂…Q₂₀` tilings plus random aligned windows), replayable from a
//!   one-line form;
//! - [`invariants`] — the machine-checked law catalogue per estimator
//!   exactness class;
//! - [`harness`] — the differential runner executing all nine estimators
//!   through the [`EstimatorEngine`](euler_engine::EstimatorEngine),
//!   plus the structural checks (dynamic replay, persistence, browse);
//! - [`interleave`] — the concurrent-interleaving law for the
//!   epoch-snapshot substrate: every answer a reader pins equals a frozen
//!   rebuild of some write-log prefix, at any thread count;
//! - [`shrink`](mod@shrink) — delta-debugging of failures into minimal, replayable
//!   reproductions;
//! - [`fault`] + [`corpus`] — injected defects proving the harness
//!   catches bugs, and the regression corpus of one-line replays.
//!
//! ## Replaying a failure
//!
//! A failure report prints a `replay:` line. To reproduce locally:
//!
//! ```
//! use euler_conformance::{run_case, CaseSpec};
//!
//! let spec = CaseSpec::from_line("dist=snapped nx=6 ny=6 objects=44 seed=5").unwrap();
//! let outcome = run_case(&spec);
//! assert!(outcome.is_clean(), "{:#?}", outcome.violations);
//! ```
//!
//! CI knobs (environment variables):
//!
//! - `EULER_CONFORMANCE_BUDGET` — case-budget multiplier (default 1; the
//!   nightly job uses 10);
//! - `EULER_CONFORMANCE_SEED` — base seed (default fixed; the nightly job
//!   derives it from the run date);
//! - `EULER_CONFORMANCE_REPORT` — if set, failing reproductions are also
//!   written to this path for artifact upload;
//! - `EULER_FAULT_SEED` — (with the `failpoints` feature) base seed for
//!   the deterministic fail-point plans the fault-injection tests arm
//!   (see `euler_engine::faults`).

pub mod corpus;
pub mod crash;
pub mod fault;
pub mod harness;
pub mod interleave;
pub mod invariants;
pub mod shrink;
pub mod spec;

pub use corpus::{replay_corpus, CORPUS};
pub use crash::{check_kill_points, check_torn_tails, CrashSummary};
pub use fault::{Fault, FaultyEstimator, PanickingEstimator, SweepPanickingEstimator};
pub use harness::{
    check_fault_resilience, differential_matrix, run_case, sweep_tilings, CaseOutcome,
    EstimatorKind,
};
pub use interleave::{check_interleaving, InterleaveSummary};
pub use invariants::{check_estimate, check_sweep_equivalence, ExactnessClass, Violation};
pub use shrink::{shrink, Reproduction};
pub use spec::{CaseSpec, Distribution};

use euler_core::model::count_by_classification;
use euler_grid::{GridRect, SnappedRect};

/// The fixed base seed used when `EULER_CONFORMANCE_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xE07E12;

/// Case-budget multiplier from `EULER_CONFORMANCE_BUDGET` (default 1).
pub fn env_budget() -> usize {
    std::env::var("EULER_CONFORMANCE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&b| b >= 1)
        .unwrap_or(1)
}

/// Base seed from `EULER_CONFORMANCE_SEED` (default [`DEFAULT_SEED`]).
pub fn env_seed() -> u64 {
    std::env::var("EULER_CONFORMANCE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The default case matrix: every distribution crossed with four grid
/// shapes (including non-square and non-divisible dimensions), repeated
/// `budget` times with independent seeds.
pub fn default_specs(base_seed: u64, budget: usize) -> Vec<CaseSpec> {
    const SHAPES: [(usize, usize, usize); 4] = [(6, 4, 24), (12, 9, 48), (9, 9, 36), (20, 10, 64)];
    let mut specs = Vec::with_capacity(budget * Distribution::ALL.len() * SHAPES.len());
    for round in 0..budget as u64 {
        for (di, dist) in Distribution::ALL.into_iter().enumerate() {
            for (si, (nx, ny, objects)) in SHAPES.into_iter().enumerate() {
                specs.push(CaseSpec {
                    seed: base_seed
                        .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add((di * SHAPES.len() + si) as u64),
                    dist,
                    nx,
                    ny,
                    objects,
                });
            }
        }
    }
    specs
}

/// Aggregate result of a suite run.
#[derive(Debug, Default)]
pub struct SuiteSummary {
    /// Cases executed.
    pub cases: usize,
    /// Differential estimator×query comparisons performed.
    pub comparisons: usize,
    /// Shrunk reproductions of every failing case.
    pub failures: Vec<Reproduction>,
}

/// Runs the conformance battery over `specs`, shrinking each failing case
/// to a minimal reproduction. If `EULER_CONFORMANCE_REPORT` is set, the
/// reports are also written there (one per failure) for CI artifact
/// upload.
pub fn run_suite(specs: &[CaseSpec]) -> SuiteSummary {
    let mut summary = SuiteSummary::default();
    for spec in specs {
        let outcome = run_case(spec);
        summary.cases += 1;
        summary.comparisons += outcome.comparisons;
        if let Some(first) = outcome.violations.into_iter().next() {
            summary.failures.push(shrink_violation(spec, &first));
        }
    }
    if !summary.failures.is_empty() {
        write_report(&summary.failures);
    }
    summary
}

/// Shrinks one violation from [`run_case`] into a [`Reproduction`].
///
/// Estimator violations re-run the differential check on candidate object
/// subsets; structural violations (dynamic replay, persistence, browse)
/// are reported unshrunk — their failing surface is the whole case.
pub fn shrink_violation(spec: &CaseSpec, violation: &Violation) -> Reproduction {
    let objects = spec.snapped();
    let kind = EstimatorKind::ALL
        .into_iter()
        .find(|k| k.expected_name() == violation.estimator);
    if let Some(kind) = kind {
        let grid = spec.grid();
        let check = |objs: &[SnappedRect], q: &GridRect| -> Option<Violation> {
            let est = kind.build(&grid, objs);
            let oracle = count_by_classification(objs, q);
            let got = est.estimate(q);
            let mut out = Vec::new();
            check_estimate(
                kind.expected_name(),
                kind.class(),
                q,
                &got,
                &oracle,
                objs.len() as i64,
                &mut out,
            );
            if kind == EstimatorKind::SEuler {
                invariants::check_s_euler_conditional(q, &got, &oracle, objs, &mut out);
            }
            out.into_iter().next()
        };
        if let Some(repro) = shrink(spec, &objects, &violation.query, check) {
            return repro;
        }
    }
    Reproduction {
        line: spec.to_line(),
        object_indices: (0..objects.len()).collect(),
        query: violation.query,
        violation: violation.clone(),
    }
}

/// Appends failure reports to the `EULER_CONFORMANCE_REPORT` path, if
/// set. Errors are printed, not propagated — reporting must never mask
/// the underlying failure.
pub fn write_report(failures: &[Reproduction]) {
    let text: String = failures
        .iter()
        .map(|r| format!("{}\n\n", r.report()))
        .collect();
    append_report_text(&text);
}

/// Appends raw failure text to the `EULER_CONFORMANCE_REPORT` path, if
/// set — the shared sink for both shrunk reproductions and structural
/// failures (e.g. interleaving-law violations) whose replay line is
/// already embedded in the text.
pub fn append_report_text(text: &str) {
    let Ok(path) = std::env::var("EULER_CONFORMANCE_REPORT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(e) = f.write_all(text.as_bytes()) {
                eprintln!("conformance: failed writing report to {path}: {e}");
            }
        }
        Err(e) => eprintln!("conformance: cannot open report path {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_scale_with_budget() {
        let one = default_specs(DEFAULT_SEED, 1);
        let ten = default_specs(DEFAULT_SEED, 10);
        assert_eq!(one.len(), 24);
        assert_eq!(ten.len(), 240);
        // Rounds use distinct seeds.
        assert_ne!(one[0].seed, ten[24].seed);
        // All distributions and shapes appear.
        for dist in Distribution::ALL {
            assert!(one.iter().any(|s| s.dist == dist));
        }
    }

    #[test]
    fn env_helpers_have_sane_defaults() {
        // The suite must not depend on ambient env in the common case.
        if std::env::var("EULER_CONFORMANCE_BUDGET").is_err() {
            assert_eq!(env_budget(), 1);
        }
        if std::env::var("EULER_CONFORMANCE_SEED").is_err() {
            assert_eq!(env_seed(), DEFAULT_SEED);
        }
    }
}
