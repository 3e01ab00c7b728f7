//! The conformance laws, run through the facade at the fixed default seed
//! and budget 1: the differential battery (which includes the
//! sweep-equivalence and compressed-tier laws),
//! the regression corpus, and the interleaving and crash-recovery laws on
//! one small case. The `euler-conformance` package runs the same laws
//! with more shapes, thread counts and environment-driven seeds.

use spatial_histograms::conformance::{
    check_interleaving, check_kill_points, check_torn_tails, default_specs, replay_corpus,
    run_suite, CaseSpec, Distribution, DEFAULT_SEED,
};

/// The one small case the concurrency and durability laws run on.
fn small_spec() -> CaseSpec {
    CaseSpec {
        seed: DEFAULT_SEED,
        dist: Distribution::Mixed,
        nx: 10,
        ny: 8,
        objects: 32,
    }
}

#[test]
fn differential_suite_holds_every_law() {
    let specs = default_specs(DEFAULT_SEED, 1);
    let summary = run_suite(&specs);
    assert_eq!(summary.cases, specs.len());
    assert!(
        summary.comparisons >= 1_000,
        "suite too small: {} comparisons",
        summary.comparisons
    );
    let reports: Vec<String> = summary.failures.iter().map(|f| f.report()).collect();
    assert!(
        summary.failures.is_empty(),
        "{} failing case(s):\n{}",
        summary.failures.len(),
        reports.join("\n\n")
    );
}

#[test]
fn regression_corpus_replays_cleanly() {
    let results = replay_corpus();
    assert!(!results.is_empty());
    for (spec, outcome) in results {
        assert!(
            outcome.is_clean(),
            "corpus regression `{}`: {:#?}",
            spec.to_line(),
            outcome.violations
        );
    }
}

#[test]
fn interleaved_reads_equal_prefix_rebuilds() {
    let summary = check_interleaving(&small_spec(), 4);
    assert!(
        summary.is_clean(),
        "interleaving law violated:\n{}",
        summary.violations.join("\n")
    );
    assert!(summary.answers_checked > 0);
}

#[test]
fn crash_recovery_equals_prefix_rebuilds() {
    let spec = small_spec();
    for checkpoint_every in [None, Some(8)] {
        let summary = check_kill_points(&spec, checkpoint_every);
        assert!(
            summary.is_clean(),
            "kill-point law violated (checkpoint_every {checkpoint_every:?}):\n{}",
            summary.violations.join("\n")
        );
        assert!(summary.recoveries_checked > spec.objects);
    }
    let summary = check_torn_tails(&spec);
    assert!(
        summary.is_clean(),
        "torn-tail law violated:\n{}",
        summary.violations.join("\n")
    );
    assert!(summary.recoveries_checked > 1_000);
}
