//! A minimal, dependency-free micro-benchmark harness.
//!
//! The bench targets (`benches/*.rs`, built with `harness = false`) used
//! to rely on an external benchmarking crate; that made `cargo build`
//! depend on a reachable registry. This harness keeps the same shape —
//! named benchmarks, warm-up, repeated timed samples, a median
//! nanoseconds-per-iteration report — with nothing but `std::time`.
//!
//! Run with `cargo bench -p bench` (all targets) or pass a substring
//! to filter: `cargo bench -p bench -- context_add`.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier — prevents the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Named-benchmark runner with a substring filter taken from argv.
#[derive(Debug)]
pub struct Harness {
    filters: Vec<String>,
    samples: usize,
    target_sample_time: Duration,
}

impl Harness {
    /// Build a harness from the process arguments. Positional arguments
    /// are name filters (substring match); flags (anything starting with
    /// `-`, e.g. the `--bench` cargo passes) are ignored.
    #[must_use]
    pub fn from_args() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Self {
            filters,
            samples: 7,
            target_sample_time: Duration::from_millis(40),
        }
    }

    fn matches(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Time `f`, printing a `name ... median ns/iter (min..max)` line.
    ///
    /// The closure's return value is routed through [`black_box`] so the
    /// computation cannot be optimized away.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if !self.matches(name) {
            return;
        }
        // Warm-up and per-sample iteration-count calibration.
        let mut iters: u64 = 1;
        let calibration = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || iters >= 1 << 24 {
                break elapsed;
            }
            iters *= 4;
        };
        let per_iter = calibration.as_nanos().max(1) / u128::from(iters);
        let sample_iters = (self.target_sample_time.as_nanos() / per_iter.max(1)).clamp(1, 1 << 28);
        let sample_iters = u64::try_from(sample_iters).expect("clamped above");

        let mut ns_per_iter: Vec<u128> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..sample_iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() / u128::from(sample_iters)
            })
            .collect();
        ns_per_iter.sort_unstable();
        let median = ns_per_iter[ns_per_iter.len() / 2];
        let min = ns_per_iter[0];
        let max = ns_per_iter[ns_per_iter.len() - 1];
        println!(
            "{name:<40} {median:>12} ns/iter  (min {min}, max {max}, {sample_iters} iters/sample)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_substrings() {
        let h = Harness {
            filters: vec!["add".to_owned()],
            samples: 1,
            target_sample_time: Duration::from_micros(1),
        };
        assert!(h.matches("context_add/level1"));
        assert!(!h.matches("lp/solve"));
    }

    #[test]
    fn empty_filter_matches_everything() {
        let h = Harness {
            filters: Vec::new(),
            samples: 1,
            target_sample_time: Duration::from_micros(1),
        };
        assert!(h.matches("anything"));
    }

    #[test]
    fn bench_runs_the_closure() {
        let h = Harness {
            filters: Vec::new(),
            samples: 1,
            target_sample_time: Duration::from_micros(10),
        };
        let mut calls = 0u64;
        h.bench("smoke", || {
            calls += 1;
            calls
        });
        assert!(calls > 0);
    }
}
