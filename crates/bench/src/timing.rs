//! Wall-clock timing for the micro-benches (`cargo bench`, under
//! `harness = false`).
//!
//! Each benchmark warms up while it picks an iteration count that fills
//! a ~25 ms sample, takes 10 samples, and prints one line:
//! `group/id   time: [min mean max]` per-iteration time, plus
//! `thrpt: N elem/s` when the group has a throughput. No statistics,
//! baselines or reports beyond that line; the gated benches write their
//! own `results/BENCH_*.json`.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples taken per benchmark.
const SAMPLES: usize = 10;

const TARGET_SAMPLE: Duration = Duration::from_millis(25);
const MAX_ITERS_PER_SAMPLE: u64 = 50_000_000;

/// A named set of benchmarks; each id prints as `group/id`.
pub struct Group {
    name: String,
    elements: Option<u64>,
}

impl Group {
    /// Starts a group.
    pub fn new(name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            elements: None,
        }
    }

    /// Reports later benchmarks of the group with a throughput of
    /// `elements` per iteration.
    pub fn throughput(&mut self, elements: u64) {
        self.elements = Some(elements);
    }

    /// Times `routine`; the whole call is the measured unit.
    pub fn bench<O>(&self, id: impl Display, routine: impl FnMut() -> O) {
        let samples = sample_iter(SAMPLES, routine);
        println!("{}", self.report(id, &samples));
    }

    /// Times `routine` over inputs that `setup` makes outside the timed
    /// region.
    pub fn bench_batched<I, O>(
        &self,
        id: impl Display,
        setup: impl FnMut() -> I,
        routine: impl FnMut(I) -> O,
    ) {
        let samples = sample_batched(SAMPLES, setup, routine);
        println!("{}", self.report(id, &samples));
    }

    /// Ends the group with a blank line.
    pub fn finish(self) {
        println!();
    }

    fn report(&self, id: impl Display, samples: &[f64]) -> String {
        let id = format!("{}/{id}", self.name);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        let mut line = format!(
            "{id:<40} time: [{} {} {}]",
            fmt_ns(min),
            fmt_ns(mean),
            fmt_ns(max)
        );
        if let Some(n) = self.elements {
            let rate = n as f64 / (mean / 1e9);
            line.push_str(&format!("  thrpt: {rate:.0} elem/s"));
        }
        line
    }
}

/// Mean per-iteration nanoseconds of each of `samples` samples of
/// `routine`, after a warm-up that calibrates the iteration count.
fn sample_iter<O>(samples: usize, mut routine: impl FnMut() -> O) -> Vec<f64> {
    // Grow the count 4× until a run fills a quarter of the target, then
    // scale it to the whole target.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= TARGET_SAMPLE / 4 || iters >= MAX_ITERS_PER_SAMPLE {
            let per_iter = elapsed.as_nanos().max(1) as f64 / iters as f64;
            let target = TARGET_SAMPLE.as_nanos() as f64;
            iters = ((target / per_iter) as u64).clamp(1, MAX_ITERS_PER_SAMPLE);
            break;
        }
        iters = iters.saturating_mul(4);
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// [`sample_iter`] for a routine that consumes its input: each sample
/// makes all its inputs first, then times only the routine over them.
fn sample_batched<I, O>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Vec<f64> {
    // Calibrate with one timed run.
    let input = setup();
    let start = Instant::now();
    black_box(routine(input));
    let once = start.elapsed().as_nanos().max(1) as f64;
    let per_sample = ((TARGET_SAMPLE.as_nanos() as f64 / once) as u64).clamp(1, 10_000);
    (0..samples)
        .map(|_| {
            let inputs: Vec<I> = (0..per_sample).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            start.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_samples() {
        let mut x = 0u64;
        let samples = sample_iter(3, || {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn batched_collects_samples() {
        let samples = sample_batched(2, || vec![1u8; 16], |v| v.len());
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn batched_setup_is_not_timed() {
        // A routine over half the target sample runs once per sample, so
        // every sample holds one 20 ms setup and one 15 ms routine.
        const SETUP: Duration = Duration::from_millis(20);
        const WORK: Duration = Duration::from_millis(15);
        let samples = sample_batched(
            2,
            || std::thread::sleep(SETUP),
            |()| {
                let start = Instant::now();
                while start.elapsed() < WORK {
                    std::hint::spin_loop();
                }
            },
        );
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min >= WORK.as_nanos() as f64, "routine untimed: {min} ns");
        assert!(
            min < (WORK + SETUP).as_nanos() as f64,
            "setup timed: {min} ns"
        );
    }

    #[test]
    fn ids_render_as_group_name_param() {
        let mut group = Group::new("batch_throughput");
        let line = group.report(format_args!("{}/{}", "Q10", 4), &[2e6, 1e6, 3e6]);
        assert!(
            line.starts_with("batch_throughput/Q10/4 ")
                && line.ends_with("time: [1.00 ms 2.00 ms 3.00 ms]"),
            "{line}"
        );
        group.throughput(648);
        let line = group.report("Q10/4", &[2e6]);
        assert!(line.ends_with("]  thrpt: 324000 elem/s"), "{line}");
    }
}
