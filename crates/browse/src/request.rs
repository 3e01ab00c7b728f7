//! The unified browse request: one builder for everything a multi-tile
//! browse can be asked to do — worker count, telemetry and the mega-hit
//! threshold, plus the deadline and cancel token it hands the engine as
//! `BatchOptions` — behind one `browse(&Tiling, &BrowseRequest)` entry
//! point that can hand the same request to any [`crate::BrowseSession`].

use std::time::Duration;

use euler_engine::{BatchOptions, CancelToken};

/// Everything one multi-tile browse can be asked to do: worker count,
/// telemetry, the mega-hit advice threshold, a wall-clock deadline and a
/// cancellation token.
///
/// The default is the interactive profile — sequential (engine fan-out
/// only pays from a few thousand tiles), telemetry on, mega-hit
/// threshold 10 000, no deadline, no cancel token:
///
/// ```
/// use euler_browse::BrowseRequest;
/// use std::time::Duration;
///
/// let req = BrowseRequest::new()
///     .threads(4)
///     .deadline(Duration::from_millis(50))
///     .mega_threshold(1_000);
/// assert_eq!(req.effective_threads(), 4);
/// assert!(req.batch_options().has_controls());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BrowseRequest {
    threads: Option<usize>,
    telemetry: Option<bool>,
    mega_threshold: Option<i64>,
    controls: BatchOptions,
}

impl BrowseRequest {
    /// The mega-hit threshold used when none is set.
    pub const DEFAULT_MEGA_THRESHOLD: i64 = 10_000;

    /// The default request: one thread, telemetry on, mega-hit threshold
    /// 10 000, no deadline or cancel token.
    pub fn new() -> BrowseRequest {
        BrowseRequest::default()
    }

    /// Sets the engine worker count; `0` means one worker per available
    /// core.
    pub fn threads(mut self, threads: usize) -> BrowseRequest {
        self.threads = Some(threads);
        self
    }

    /// Toggles recording into the session's `Recorder`.
    pub fn telemetry(mut self, on: bool) -> BrowseRequest {
        self.telemetry = Some(on);
        self
    }

    /// Sets the per-tile intersect count from which a tile counts as a
    /// mega-hit in the telemetry.
    pub fn mega_threshold(mut self, threshold: i64) -> BrowseRequest {
        self.mega_threshold = Some(threshold);
        self
    }

    /// Sets a wall-clock budget for the browse: when it runs out, the
    /// answered tiles are delivered and the unanswered tail is reported
    /// per tile (see `BrowseResult::unavailable`).
    pub fn deadline(mut self, budget: Duration) -> BrowseRequest {
        self.controls = self.controls.deadline(budget);
        self
    }

    /// Attaches a cancellation token; flip it with [`CancelToken::cancel`]
    /// and the browse stops with partial delivery.
    pub fn cancel_token(mut self, token: CancelToken) -> BrowseRequest {
        self.controls = self.controls.cancel_token(token);
        self
    }

    /// The effective worker count for this machine.
    pub fn effective_threads(&self) -> usize {
        match self.threads.unwrap_or(1) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Whether telemetry recording is enabled (the default).
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.unwrap_or(true)
    }

    /// The mega-hit advice threshold.
    pub fn mega_limit(&self) -> i64 {
        self.mega_threshold.unwrap_or(Self::DEFAULT_MEGA_THRESHOLD)
    }

    /// The engine-level controls this request carries: deadline and
    /// cancel token (see [`BatchOptions`] for when the engine checks
    /// them).
    pub fn batch_options(&self) -> &BatchOptions {
        &self.controls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_interactive_profile() {
        let req = BrowseRequest::new();
        assert_eq!(req.effective_threads(), 1);
        assert!(req.telemetry_enabled());
        assert_eq!(req.mega_limit(), 10_000);
        let batch = req.batch_options();
        assert!(batch.deadline_budget().is_none());
        assert!(batch.cancel().is_none());
        assert!(!batch.has_controls());
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let token = CancelToken::new();
        let req = BrowseRequest::new()
            .threads(0)
            .telemetry(false)
            .mega_threshold(7)
            .deadline(Duration::from_millis(9))
            .cancel_token(token.clone());
        assert!(req.effective_threads() >= 1);
        assert!(!req.telemetry_enabled());
        assert_eq!(req.mega_limit(), 7);
        let batch = req.batch_options();
        assert!(batch.has_controls());
        assert_eq!(batch.deadline_budget(), Some(Duration::from_millis(9)));
        token.cancel();
        assert!(batch.cancel().expect("token attached").is_cancelled());
    }
}
