use euler_grid::{GridRect, Tiling};

/// The four Level 2 result counts of a browsing query (with `N_eq ≡ 0`
/// after snapping; §4.2).
///
/// Estimates are kept as signed integers: the approximation algebra can
/// produce small negative values (e.g. `N_cd` from Equation 21); use
/// [`RelationCounts::clamped`] when reporting to users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelationCounts {
    /// `N_d` — objects disjoint from the query.
    pub disjoint: i64,
    /// `N_cs` — objects contained in the query ("contains" results).
    pub contains: i64,
    /// `N_cd` — objects containing the query ("contained" results).
    pub contained: i64,
    /// `N_o` — objects overlapping the query.
    pub overlaps: i64,
}

impl RelationCounts {
    /// Creates counts from the four relation tallies.
    pub fn new(disjoint: i64, contains: i64, contained: i64, overlaps: i64) -> RelationCounts {
        RelationCounts {
            disjoint,
            contains,
            contained,
            overlaps,
        }
    }

    /// Total number of objects accounted for.
    pub fn total(&self) -> i64 {
        self.disjoint + self.contains + self.contained + self.overlaps
    }

    /// Number of objects intersecting the query (`n_ii = N_cs + N_cd + N_o`).
    pub fn intersecting(&self) -> i64 {
        self.contains + self.contained + self.overlaps
    }

    /// Component-wise sum (used by M-EulerApprox to merge per-histogram
    /// partial results).
    pub fn add(&self, other: &RelationCounts) -> RelationCounts {
        RelationCounts {
            disjoint: self.disjoint + other.disjoint,
            contains: self.contains + other.contains,
            contained: self.contained + other.contained,
            overlaps: self.overlaps + other.overlaps,
        }
    }

    /// Counts with negative estimates clamped to zero, for presentation.
    pub fn clamped(&self) -> RelationCounts {
        RelationCounts {
            disjoint: self.disjoint.max(0),
            contains: self.contains.max(0),
            contained: self.contained.max(0),
            overlaps: self.overlaps.max(0),
        }
    }
}

impl std::fmt::Display for RelationCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N_d={} N_cs={} N_cd={} N_o={}",
            self.disjoint, self.contains, self.contained, self.overlaps
        )
    }
}

/// An estimator of Level 2 relation counts for grid-aligned queries —
/// the single interface every summary in the workspace implements: the
/// Euler family (S-/Euler-/M-EulerApprox), the exact structures
/// (`ExactContains2D`, the R-tree oracle) and the Level 1 baselines
/// (CD, Beigel–Tanin, Min-skew, naive scan).
///
/// The trait is object-safe: batch machinery (`euler-engine`, the
/// benches) holds `Arc<dyn Level2Estimator + Send + Sync>` and dispatches
/// uniformly. Level-1-only baselines implement [`estimate`] by collapsing
/// every intersecting object into `overlaps` — the capability gap the
/// paper's §2 describes, made visible through the shared interface.
///
/// [`estimate`]: Level2Estimator::estimate
pub trait Level2Estimator {
    /// Short name used in result tables ("S-EulerApprox", …).
    fn name(&self) -> &'static str;

    /// Estimates the Level 2 relation counts for an aligned query.
    fn estimate(&self, q: &GridRect) -> RelationCounts;

    /// Number of objects summarized.
    fn object_count(&self) -> u64;

    /// Auxiliary storage in scalar cells (bucket entries, prefix-sum
    /// entries, tree records…) — the space axis of the paper's
    /// accuracy/storage trade-off tables. Zero for summaries that keep no
    /// structure beyond the raw objects.
    fn storage_cells(&self) -> u64;

    /// Estimates every tile of a browsing query (a [`Tiling`]), in the
    /// tiling's row-major iteration order.
    ///
    /// The default is the per-tile loop — one [`estimate`] call per tile.
    /// Sweep-capable estimators override this with a tiling-aware kernel
    /// (see `sweep::TilingPlan` in this crate) that amortizes prefix-sum
    /// corner lookups across the whole query set; any override must
    /// return **bit-identical** counts to the default loop (a law the
    /// conformance harness enforces for every estimator).
    ///
    /// **Error surface.** An override has no `Result` channel: its only
    /// failure mode is a panic, and callers that must not die treat the
    /// per-tile loop as the recovery path. `euler-engine` runs overrides
    /// under `catch_unwind` and falls back to this default on panic —
    /// the bit-identity law above is exactly what makes that fallback
    /// lossless (a degraded path, not a different answer).
    ///
    /// [`estimate`]: Level2Estimator::estimate
    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        t.iter().map(|(_, tile)| self.estimate(&tile)).collect()
    }

    /// [`estimate_tiling`] plus the element-wise sum of every tile's
    /// counts. Batch machinery reports the per-relation total alongside
    /// the per-tile counts; sweep-capable estimators override this to
    /// accumulate the total during emission instead of paying a second
    /// pass over the (potentially large) output vector. Must equal
    /// folding [`RelationCounts::add`] over [`estimate_tiling`].
    ///
    /// [`estimate_tiling`]: Level2Estimator::estimate_tiling
    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        let counts = self.estimate_tiling(t);
        let mut total = RelationCounts::default();
        for c in &counts {
            total = total.add(c);
        }
        (counts, total)
    }

    /// Whether [`estimate_tiling`] is backed by a tiling-aware sweep
    /// kernel (rather than the default per-tile loop). Batch machinery
    /// uses this to decide when dispatching a whole tiling to the
    /// estimator beats fanning tiles across workers. The kernel is one
    /// uninterruptible pass: `euler-engine` checks a batch's deadline
    /// and cancellation token before dispatching it, then lets it run to
    /// completion.
    ///
    /// [`estimate_tiling`]: Level2Estimator::estimate_tiling
    fn supports_sweep(&self) -> bool {
        false
    }

    /// The ingest epoch the estimator's backing snapshot belongs to, when
    /// it reads from the epoch-snapshot substrate (`euler-core`'s
    /// `snapshot` module); `None` for estimators over plain summaries.
    ///
    /// Batch machinery uses this to tag results: an estimator pinned to
    /// one snapshot answers every query of a batch from the same epoch,
    /// and the engine records that epoch in its telemetry.
    fn epoch(&self) -> Option<u64> {
        None
    }
}

impl<T: Level2Estimator + ?Sized> Level2Estimator for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        (**self).estimate(q)
    }
    fn object_count(&self) -> u64 {
        (**self).object_count()
    }
    fn storage_cells(&self) -> u64 {
        (**self).storage_cells()
    }
    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        (**self).estimate_tiling(t)
    }
    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        (**self).estimate_tiling_total(t)
    }
    fn supports_sweep(&self) -> bool {
        (**self).supports_sweep()
    }
    fn epoch(&self) -> Option<u64> {
        (**self).epoch()
    }
}

impl<T: Level2Estimator + ?Sized> Level2Estimator for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn estimate(&self, q: &GridRect) -> RelationCounts {
        (**self).estimate(q)
    }
    fn object_count(&self) -> u64 {
        (**self).object_count()
    }
    fn storage_cells(&self) -> u64 {
        (**self).storage_cells()
    }
    fn estimate_tiling(&self, t: &Tiling) -> Vec<RelationCounts> {
        (**self).estimate_tiling(t)
    }
    fn estimate_tiling_total(&self, t: &Tiling) -> (Vec<RelationCounts>, RelationCounts) {
        (**self).estimate_tiling_total(t)
    }
    fn supports_sweep(&self) -> bool {
        (**self).supports_sweep()
    }
    fn epoch(&self) -> Option<u64> {
        (**self).epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_sums() {
        let c = RelationCounts::new(10, 3, 1, 2);
        assert_eq!(c.total(), 16);
        assert_eq!(c.intersecting(), 6);
        let d = c.add(&RelationCounts::new(1, 1, 1, 1));
        assert_eq!(d.total(), 20);
    }

    #[test]
    fn clamping() {
        let c = RelationCounts::new(5, -2, 3, -1);
        let k = c.clamped();
        assert_eq!(k, RelationCounts::new(5, 0, 3, 0));
    }

    #[test]
    fn display_is_compact() {
        let c = RelationCounts::new(1, 2, 3, 4);
        assert_eq!(c.to_string(), "N_d=1 N_cs=2 N_cd=3 N_o=4");
    }
}
