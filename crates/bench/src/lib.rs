//! Shared experiment harness: one binary per figure/table of §6 (see
//! DESIGN.md's experiment index), all built on this crate's [`PaperEnv`].
//!
//! Every binary:
//!
//! 1. builds the paper datasets (seeded; scaled by the `EULER_SCALE`
//!    environment variable — `1` reproduces the paper's sizes and is the
//!    default in release builds);
//! 2. computes exact ground truth with the difference-array counter;
//! 3. runs the estimator(s) under test;
//! 4. prints the paper-shaped rows/series and writes them to
//!    `results/<experiment>.txt`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

pub use euler_browse::Relation;
use euler_core::{EulerHistogram, FrozenEulerHistogram, Level2Estimator};
use euler_datagen::exact::{ground_truth_all, GroundTruth};
use euler_datagen::{paper_dataset, Dataset};
use euler_engine::{BatchReport, EstimatorEngine, QueryBatch};
use euler_grid::{Grid, QuerySet, SnappedRect};
use euler_metrics::ErrorAccumulator;

pub mod timing;

/// The experiment environment: the paper grid plus dataset scaling.
pub struct PaperEnv {
    /// The 360×180 grid at 1°×1°.
    pub grid: Grid,
    /// Dataset size divisor (1 = the paper's sizes).
    pub scale: u32,
    datasets: HashMap<String, Dataset>,
    snapped: HashMap<String, Vec<SnappedRect>>,
}

impl PaperEnv {
    /// Builds the environment, reading `EULER_SCALE` (default 1). A
    /// malformed value is an error naming the variable — the figure
    /// binaries surface it as a one-line failure instead of silently
    /// benchmarking at the wrong scale.
    pub fn try_from_env() -> Result<PaperEnv, String> {
        let scale = match std::env::var("EULER_SCALE") {
            Err(_) => 1,
            Ok(raw) => raw
                .parse::<u32>()
                .map_err(|e| format!("EULER_SCALE={raw:?}: {e}"))?
                .max(1),
        };
        Ok(PaperEnv {
            grid: Grid::paper_default(),
            scale,
            datasets: HashMap::new(),
            snapped: HashMap::new(),
        })
    }

    /// [`Self::try_from_env`] with a malformed `EULER_SCALE` falling back
    /// to 1 (with a warning): the forgiving entry point for binaries that
    /// predate the strict one.
    pub fn from_env() -> PaperEnv {
        PaperEnv::try_from_env().unwrap_or_else(|e| {
            eprintln!("warning: {e}; running at scale 1");
            PaperEnv::with_scale(1)
        })
    }

    /// A fixed-scale environment (tests).
    pub fn with_scale(scale: u32) -> PaperEnv {
        PaperEnv {
            grid: Grid::paper_default(),
            scale: scale.max(1),
            datasets: HashMap::new(),
            snapped: HashMap::new(),
        }
    }

    /// The (cached) dataset by paper name.
    pub fn dataset(&mut self, name: &str) -> &Dataset {
        let scale = self.scale;
        self.datasets.entry(name.to_string()).or_insert_with(|| {
            paper_dataset(name, scale).unwrap_or_else(|| panic!("dataset {name}"))
        })
    }

    /// The (cached) snapped dataset by paper name.
    pub fn snapped(&mut self, name: &str) -> &[SnappedRect] {
        if !self.snapped.contains_key(name) {
            let grid = self.grid;
            let snapped = self.dataset(name).snap(&grid);
            self.snapped.insert(name.to_string(), snapped);
        }
        &self.snapped[name]
    }

    /// The eleven paper query sets Q₂₀ … Q₂.
    pub fn query_sets(&self) -> Vec<QuerySet> {
        QuerySet::paper_sets(&self.grid)
    }

    /// Exact ground truth for a snapped dataset over the given query sets
    /// (parallel across sets).
    pub fn ground_truth(&self, objects: &[SnappedRect], sets: &[QuerySet]) -> Vec<GroundTruth> {
        let tilings: Vec<_> = sets.iter().map(|qs| *qs.tiling()).collect();
        ground_truth_all(objects, &tilings)
    }

    /// The frozen Euler histogram of a (cached) snapped dataset — the
    /// shared input of every Euler-family estimator, hoisted here so the
    /// figure binaries stop repeating the build-and-freeze block.
    pub fn frozen(&mut self, name: &str) -> FrozenEulerHistogram {
        let grid = self.grid;
        EulerHistogram::build(grid, self.snapped(name)).freeze()
    }
}

/// Wraps any estimator into a batch engine using every available core.
/// The figure binaries dispatch each estimator through this one path
/// instead of hand-rolling per-algorithm query loops.
pub fn engine(est: impl Level2Estimator + Send + Sync + 'static) -> EstimatorEngine {
    EstimatorEngine::new(Arc::new(est))
}

/// Per-query-set, per-relation average relative errors for one
/// estimator, with every estimate computed through the batch engine.
///
/// Returns `out[set][relation]`, matching the order of `sets` and
/// `relations`; estimates are clamped before scoring (as the figures
/// present them). Ground truths must align with `sets`
/// ([`PaperEnv::ground_truth`] output order).
pub fn are_matrix(
    engine: &EstimatorEngine,
    sets: &[QuerySet],
    gts: &[GroundTruth],
    relations: &[Relation],
) -> Vec<Vec<f64>> {
    assert_eq!(sets.len(), gts.len(), "one ground truth per query set");
    sets.iter()
        .zip(gts)
        .map(|(qs, gt)| {
            let result = engine.run_batch(&QueryBatch::from(qs));
            relations
                .iter()
                .map(|rel| {
                    let mut acc = ErrorAccumulator::default();
                    for (est, exact) in result.counts.iter().zip(gt.counts()) {
                        let e = est.clamped();
                        acc.push(rel.of(exact) as f64, rel.of(&e) as f64);
                    }
                    acc.are()
                })
                .collect()
        })
        .collect()
}

/// Runs a whole query set through the engine and returns the measured
/// batch report (wall-clock latency, throughput, totals).
pub fn time_query_set(engine: &EstimatorEngine, qs: &QuerySet) -> BatchReport {
    engine.run_batch(&QueryBatch::from(qs)).report
}

/// Writes an experiment report to stdout and `results/<id>.txt`,
/// returning a one-line error when the file can't be written (stdout
/// output has already happened either way).
pub fn try_emit_report(id: &str, body: &str) -> Result<(), String> {
    println!("{body}");
    write_results_file(&format!("{id}.txt"), body)
}

/// [`try_emit_report`], with a write failure reported to stderr instead
/// of propagated — the measurements on stdout are the primary output and
/// have already been printed.
pub fn emit_report(id: &str, body: &str) {
    if let Err(e) = try_emit_report(id, body) {
        eprintln!("warning: results file not written: {e}");
    }
}

/// Writes a bench's JSON summary to `results/BENCH_<stem>.json`, or to
/// `results/BENCH_<stem>.quick.json` for a quick run, panicking when the
/// file can't be written: a gate must not read a stale baseline.
pub fn write_bench_json(stem: &str, quick: bool, body: &str) {
    let quick = if quick { ".quick" } else { "" };
    if let Err(e) = write_results_file(&format!("BENCH_{stem}{quick}.json"), body) {
        panic!("bench json not written: {e}");
    }
}

/// Writes `body` to `results/<name>`, creating the directory, and names
/// the file on stderr.
fn write_results_file(name: &str, body: &str) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let mut f =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    f.write_all(body.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[written to {}]", path.display());
    Ok(())
}

/// Locates `results/` next to the workspace root (`CARGO_MANIFEST_DIR` is
/// `crates/bench`).
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a float with 4 decimals, rendering non-finite values visibly.
pub fn fmt4(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "inf".into()
    }
}

/// Formats a percentage with 2 decimals.
pub fn pct(v: f64) -> String {
    if v.is_finite() {
        format!("{:.2}%", 100.0 * v)
    } else {
        "inf".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_caches_datasets_and_snapping() {
        let mut env = PaperEnv::with_scale(2000);
        let n1 = env.dataset("sp_skew").len();
        let n2 = env.dataset("sp_skew").len();
        assert_eq!(n1, n2);
        let s = env.snapped("sp_skew").len();
        assert_eq!(s, n1);
        assert_eq!(env.query_sets().len(), 11);
    }

    #[test]
    fn ground_truth_matches_dataset_size() {
        let mut env = PaperEnv::with_scale(2000);
        let objects = env.snapped("sz_skew").to_vec();
        let sets: Vec<_> = env
            .query_sets()
            .into_iter()
            .filter(|qs| qs.tile_size() == 10)
            .collect();
        let gt = env.ground_truth(&objects, &sets);
        assert_eq!(gt.len(), 1);
        for c in gt[0].counts() {
            assert_eq!(c.total(), objects.len() as i64);
        }
    }

    #[test]
    fn engine_helpers_score_the_exact_scan_at_zero() {
        let mut env = PaperEnv::with_scale(2000);
        let objects = env.snapped("sp_skew").to_vec();
        let sets: Vec<_> = env
            .query_sets()
            .into_iter()
            .filter(|qs| qs.tile_size() >= 15)
            .collect();
        let gts = env.ground_truth(&objects, &sets);
        let eng = engine(euler_baselines::NaiveScan::new(objects));
        let m = are_matrix(&eng, &sets, &gts, &[Relation::Overlap, Relation::Contains]);
        assert_eq!(m.len(), sets.len());
        assert!(
            m.iter().flatten().all(|&v| v == 0.0),
            "exact scan must have zero ARE: {m:?}"
        );
        let report = time_query_set(&eng, &sets[0]);
        assert_eq!(report.queries, sets[0].len());
        assert_eq!(report.estimator, "NaiveScan");
    }

    #[test]
    fn try_from_env_rejects_malformed_scale() {
        // No other test reads EULER_SCALE; restore whatever was set.
        let original = std::env::var("EULER_SCALE").ok();

        std::env::set_var("EULER_SCALE", "2000");
        assert_eq!(PaperEnv::try_from_env().expect("valid scale").scale, 2000);
        std::env::set_var("EULER_SCALE", "0");
        assert_eq!(PaperEnv::try_from_env().expect("clamped scale").scale, 1);
        std::env::set_var("EULER_SCALE", "not-a-number");
        let err = match PaperEnv::try_from_env() {
            Err(e) => e,
            Ok(env) => panic!("malformed scale accepted at scale {}", env.scale),
        };
        assert!(err.contains("EULER_SCALE"), "{err}");
        std::env::remove_var("EULER_SCALE");
        assert_eq!(PaperEnv::try_from_env().expect("default").scale, 1);

        if let Some(v) = original {
            std::env::set_var("EULER_SCALE", v);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt4(0.12345), "0.1235");
        assert_eq!(pct(0.1), "10.00%");
        assert_eq!(fmt4(f64::INFINITY), "inf");
    }
}
