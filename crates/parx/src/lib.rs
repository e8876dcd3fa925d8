//! Dependency-free deterministic parallel execution on scoped threads.
//!
//! Every heavy sweep in this workspace — exhaustive equivalence checks,
//! fault campaigns, adder energy characterization, offline
//! characterization across accuracy levels, and the online solver hot
//! paths (row-partitioned matvec/spmv, chunked reductions) — is an
//! embarrassingly parallel map over an index space followed by an
//! order-dependent reduction. This crate provides exactly that shape on
//! [`std::thread::scope`], keeping the workspace hermetic (no rayon, no
//! crossbeam) while still saturating every core. It is the *only*
//! sanctioned home for thread spawns and synchronization primitives;
//! the workspace auditor's `raw-parallel` and `par-reduce` rules flag
//! parallelism anywhere else.
//!
//! # Determinism rules
//!
//! Parallel results must be **bit-identical** to a serial run, for any
//! thread count. Three conventions make that hold everywhere:
//!
//! 1. **Work is indexed, not streamed.** Tasks are identified by a dense
//!    index (task number or chunk start); workers pull indices from a
//!    shared atomic counter, so scheduling varies, but the *work*
//!    attached to an index never does.
//! 2. **Per-index RNG seeding.** A task that samples randomness derives
//!    its stream from [`chunk_seed`]`(base_seed, index)` instead of
//!    sharing a sequential stream, so the values drawn by task `i` do
//!    not depend on which thread ran task `i − 1`.
//! 3. **Reduction in index order.** [`Executor::run_indexed`] and
//!    [`Executor::map_chunks`] return results sorted by index; callers
//!    fold them left-to-right, so floating-point accumulation order is
//!    fixed no matter how the tasks were scheduled.
//!
//! [`Executor::for_each_chunk`] extends the contract to in-place
//! mutation: the input slice is split into disjoint contiguous chunks,
//! each chunk is owned by exactly one task, and a task's output depends
//! only on its chunk index and input — so the final slice contents are
//! the same for any thread count by construction.
//!
//! # Example
//!
//! ```
//! use parx::Executor;
//!
//! let exec = Executor::new();
//! let squares = exec.run_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same results on one thread, by construction.
//! assert_eq!(Executor::with_threads(1).run_indexed(8, |i| i * i), squares);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count (useful for
/// CI determinism experiments and for pinning benchmarks).
pub const THREADS_ENV: &str = "APPROXIT_THREADS";

/// Parse a [`THREADS_ENV`] override: `Ok(None)` when unset, the worker
/// count when set to a positive integer, and a descriptive error for
/// anything else. A silent fallback here would let a typo
/// (`APPROXIT_THREADS=axll`) or a zero quietly change the parallel
/// schedule under a benchmark, so invalid values are rejected rather
/// than ignored.
///
/// # Errors
///
/// Empty strings, non-numeric values, and `0` are all rejected.
pub fn parse_threads_env(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(format!(
            "{THREADS_ENV} is set but empty; unset it or use a positive integer"
        ));
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV}=0 is invalid: at least one worker is required"
        )),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{THREADS_ENV}={trimmed:?} is not a positive integer worker count"
        )),
    }
}

/// A fixed-width thread pool policy for scoped parallel sweeps.
///
/// `Executor` is a value, not a pool: threads are spawned per call with
/// [`std::thread::scope`] and joined before the call returns, so borrows
/// of the caller's data (netlists, operand traces, matrices) flow into
/// workers without `Arc` or cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor sized to the machine: [`std::thread::available_parallelism`],
    /// overridable via the [`THREADS_ENV`] environment variable.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when [`THREADS_ENV`] is set to
    /// something other than a positive integer — a misconfigured
    /// environment must fail loudly, not silently change the schedule.
    #[must_use]
    pub fn new() -> Self {
        let default = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let value = std::env::var(THREADS_ENV).ok();
        let threads = match parse_threads_env(value.as_deref()) {
            Ok(choice) => choice.unwrap_or(default),
            Err(message) => panic!("{message}"),
        };
        Self { threads }
    }

    /// An executor with an explicit worker count (clamped to at least 1).
    /// `with_threads(1)` is the *serial path*: it runs every task inline
    /// on the calling thread, which determinism tests compare against.
    #[must_use]
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            threads: if threads == 0 { 1 } else { threads },
        }
    }

    /// Number of worker threads this executor uses.
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `work(i)` for every `i in 0..tasks` and return the
    /// results **in index order**, regardless of scheduling.
    ///
    /// Workers pull task indices from a shared atomic counter, so load
    /// imbalance between tasks is absorbed automatically. With one
    /// thread (or one task) everything runs inline on the caller.
    pub fn run_indexed<T, F>(&self, tasks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || tasks <= 1 {
            return (0..tasks).map(work).collect();
        }
        let next = AtomicU64::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(tasks));
        let workers = self.threads.min(tasks);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= tasks {
                            break;
                        }
                        local.push((i, work(i)));
                    }
                    collected
                        .lock()
                        .expect("worker panicked while holding results lock")
                        .append(&mut local);
                });
            }
        });
        let mut results = collected.into_inner().expect("scope joined all workers");
        results.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(results.len(), tasks);
        results.into_iter().map(|(_, v)| v).collect()
    }

    /// Split `0..total` into contiguous chunks of `chunk_size` (the last
    /// chunk may be shorter), evaluate `work(start, end)` for each, and
    /// return the chunk results **in chunk order**.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    pub fn map_chunks<T, F>(&self, total: u64, chunk_size: u64, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, u64) -> T + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunks = usize::try_from(total.div_ceil(chunk_size)).expect("chunk count fits usize");
        self.run_indexed(chunks, |i| {
            let start = i as u64 * chunk_size;
            let end = (start + chunk_size).min(total);
            work(start, end)
        })
    }

    /// Split `data` into disjoint contiguous chunks of `chunk_size` (the
    /// last chunk may be shorter) and run `work(chunk_index, chunk)` on
    /// each, in parallel across a static partition of the chunk list.
    ///
    /// Chunk `i` covers `data[i * chunk_size ..]`, so `work` can recover
    /// its global offset as `chunk_index * chunk_size`. Because every
    /// element belongs to exactly one chunk and a chunk's output depends
    /// only on its index and input, the final slice contents are
    /// identical for any thread count — no reduction step is involved.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk_size: usize, work: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_size).enumerate().collect();
        let tasks = chunks.len();
        if self.threads <= 1 || tasks <= 1 {
            for (i, chunk) in chunks {
                work(i, chunk);
            }
            return;
        }
        // Static contiguous partition: worker w takes an equal share of
        // the chunk list. No counter is needed — ownership of each
        // `&mut` chunk moves into exactly one worker.
        let workers = self.threads.min(tasks);
        let mut remaining = chunks;
        let mut groups: Vec<Vec<(usize, &mut [T])>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let take = remaining.len().div_ceil(workers - w);
            let rest = remaining.split_off(take);
            groups.push(std::mem::replace(&mut remaining, rest));
        }
        let work = &work;
        std::thread::scope(|scope| {
            for group in groups {
                scope.spawn(move || {
                    for (i, chunk) in group {
                        work(i, chunk);
                    }
                });
            }
        });
    }
}

/// Derive a statistically independent seed for `attempt` of `request`
/// in a multi-request campaign seeded with `base` — the two-level
/// analogue of [`chunk_seed`] used by the solver service.
///
/// Seeding per *(request, attempt)* pair, never per worker or per
/// round, is what makes a retried request replay a fresh-but-fixed
/// fault stream regardless of which thread runs it, which round it
/// lands in, or how many other requests retried before it — the service
/// determinism contract reduces to the executor's.
#[must_use]
pub fn request_seed(base: u64, request: u64, attempt: u64) -> u64 {
    chunk_seed(chunk_seed(base, request), attempt)
}

/// Derive a statistically independent seed for chunk `index` of a sweep
/// seeded with `base` (SplitMix64 finalizer over the pair).
///
/// Campaigns that draw randomness inside parallel tasks must seed each
/// task from its *index*, never from a shared sequential stream — see
/// the crate docs' determinism rules.
#[must_use]
pub fn chunk_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order() {
        let exec = Executor::with_threads(4);
        let out = exec.run_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_matches_serial_path() {
        let serial = Executor::with_threads(1).run_indexed(37, |i| i as u64 * 7 + 1);
        for threads in [2, 3, 8] {
            let parallel = Executor::with_threads(threads).run_indexed(37, |i| i as u64 * 7 + 1);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_covers_the_range_exactly_once() {
        let exec = Executor::with_threads(3);
        let spans = exec.map_chunks(1000, 64, |s, e| (s, e));
        let mut expected_start = 0;
        for (s, e) in spans {
            assert_eq!(s, expected_start);
            assert!(e > s && e <= 1000);
            expected_start = e;
        }
        assert_eq!(expected_start, 1000);
    }

    #[test]
    fn map_chunks_handles_empty_and_partial_ranges() {
        let exec = Executor::with_threads(2);
        assert!(exec.map_chunks(0, 64, |s, e| (s, e)).is_empty());
        assert_eq!(exec.map_chunks(10, 64, |s, e| (s, e)), vec![(0, 10)]);
    }

    #[test]
    fn for_each_chunk_touches_every_element_exactly_once() {
        for threads in [1, 2, 3, 7] {
            let exec = Executor::with_threads(threads);
            let mut data = vec![0u64; 1003];
            exec.for_each_chunk(&mut data, 64, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += (ci * 64 + j) as u64 + 1;
                }
            });
            let expected: Vec<u64> = (1..=1003).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_handles_empty_and_short_slices() {
        let exec = Executor::with_threads(4);
        let mut empty: Vec<u32> = Vec::new();
        exec.for_each_chunk(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut short = vec![1u32; 3];
        exec.for_each_chunk(&mut short, 8, |ci, chunk| {
            assert_eq!(ci, 0);
            assert_eq!(chunk.len(), 3);
            chunk.fill(9);
        });
        assert_eq!(short, vec![9, 9, 9]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
    }

    #[test]
    fn request_seeds_differ_across_requests_and_attempts() {
        let a = request_seed(7, 0, 1);
        let b = request_seed(7, 0, 2);
        let c = request_seed(7, 1, 1);
        let d = request_seed(8, 0, 1);
        assert_ne!(a, b, "attempts must draw distinct streams");
        assert_ne!(a, c, "requests must draw distinct streams");
        assert_ne!(a, d, "base seeds must matter");
        assert_eq!(a, request_seed(7, 0, 1), "and be reproducible");
    }

    #[test]
    fn chunk_seeds_differ_across_indices() {
        let a = chunk_seed(42, 0);
        let b = chunk_seed(42, 1);
        let c = chunk_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And are reproducible.
        assert_eq!(a, chunk_seed(42, 0));
    }

    #[test]
    fn threads_env_accepts_positive_integers() {
        assert_eq!(parse_threads_env(None), Ok(None));
        assert_eq!(parse_threads_env(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads_env(Some("16")), Ok(Some(16)));
        assert_eq!(
            parse_threads_env(Some(" 8 ")),
            Ok(Some(8)),
            "whitespace is tolerated"
        );
    }

    #[test]
    fn threads_env_rejects_zero_empty_and_garbage() {
        for bad in ["0", "", "  ", "four", "-2", "1.5", "0x10"] {
            let err = parse_threads_env(Some(bad))
                .expect_err("invalid override must not silently fall back");
            assert!(err.contains(THREADS_ENV), "error names the variable: {err}");
        }
        assert!(parse_threads_env(Some("0"))
            .unwrap_err()
            .contains("at least one worker"));
    }
}
