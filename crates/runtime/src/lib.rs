//! Deterministic parallel execution runtime.
//!
//! Every parallel operation in this workspace goes through a [`Runtime`]
//! handle. The runtime's one non-negotiable contract is **determinism**:
//! for the same inputs, results are bit-identical regardless of how many
//! worker threads execute them — `Runtime::new(1)`, `Runtime::new(7)`, and
//! `Runtime::from_env()` on any machine all produce the same bytes.
//!
//! The contract holds by construction, not by testing alone:
//!
//! * **Disjoint ownership** — work is split into contiguous index ranges,
//!   one per worker; no two workers ever touch the same output element, so
//!   there is nothing to race on and no locks are needed.
//! * **Partition-independent elements** — the closures accepted here
//!   receive global indices and must compute each element from those
//!   indices alone, never from chunk-local state. The chunk boundaries can
//!   then move freely (different thread counts) without changing any
//!   element.
//! * **Fixed reduction order** — when per-worker results are combined
//!   ([`Runtime::par_map_indexed`]), they are concatenated in worker-index
//!   order, which equals global index order. Floating-point reductions
//!   therefore see operands in the same sequence every time. Work whose
//!   reduction the *caller* performs ([`Runtime::par_shards`]) is split
//!   into worker-count-independent shards so the caller can reduce them in
//!   fixed shard order.
//!
//! Workers live in a process-wide persistent pool ([`pool`]) spawned
//! lazily on the first multi-worker dispatch and parked on a condvar
//! between jobs. Dispatch is allocation-free — required by the
//! zero-allocation training contract, which a scoped-thread spawn per
//! optimizer step would break. Because results never depend on the worker
//! count, the runtime clamps *execution* to the machine's available
//! parallelism: requesting more workers than cores changes nothing but
//! the oversubscription overhead, so the extra workers simply aren't used
//! ([`Runtime::threads`] still reports the requested count).
//!
//! # Choosing a thread count
//!
//! [`Runtime::from_env`] reads `TARGAD_THREADS` (falling back to
//! [`std::thread::available_parallelism`]); [`Runtime::new`] pins an exact
//! count; [`Runtime::serial`] is the single-threaded identity. The handle
//! is plain data (`Copy`) — pass it explicitly to whatever needs it.

mod pool;

/// Environment variable consulted by [`Runtime::from_env`].
pub const THREADS_ENV: &str = "TARGAD_THREADS";

/// A raw pointer that may cross thread boundaries. Every use derives
/// disjoint regions from worker indices, so no two workers alias.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor, so closures capture the `Sync` wrapper rather than the
    /// raw pointer field itself (disjoint closure capture).
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// `(start, len)` of worker `w`'s contiguous share of `n` items split
/// across `workers` (the first `n % workers` workers get one extra).
#[inline]
fn worker_share(n: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = n / workers;
    let extra = n % workers;
    (w * base + w.min(extra), base + usize::from(w < extra))
}

/// A handle selecting how many workers execute parallel operations.
///
/// The handle is deliberately tiny and [`Copy`]: embed it in model structs,
/// pass it down call stacks, and never reach for a global.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    /// Same as [`Runtime::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

impl Runtime {
    /// A runtime with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runtime: every operation runs inline on the
    /// calling thread.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A runtime sized from the environment: the `TARGAD_THREADS` variable
    /// if set to a positive integer, otherwise the machine's available
    /// parallelism, otherwise 1.
    ///
    /// A *set but malformed* value (`0`, empty, non-numeric) is a
    /// misconfiguration, not an absence: it emits a
    /// `runtime.threads_invalid` warning through `targad-obs` and falls
    /// back to the serial runtime rather than silently grabbing every
    /// core.
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    targad_obs::warn(
                        "runtime.threads_invalid",
                        format!(
                            "{THREADS_ENV}={raw:?} is not a positive integer; \
                             falling back to 1 worker (serial)"
                        ),
                    );
                    1
                }
            },
            Err(std::env::VarError::NotUnicode(_)) => {
                targad_obs::warn(
                    "runtime.threads_invalid",
                    format!("{THREADS_ENV} is not valid unicode; falling back to 1 worker"),
                );
                1
            }
            Err(std::env::VarError::NotPresent) => pool::host_workers(),
        };
        Self { threads }
    }

    /// The number of workers this runtime uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A copy of this runtime using at most `max_workers` workers. Callers
    /// use this to impose a work grain — e.g. "at least 64 rows per
    /// worker" — without touching the configured thread count.
    pub fn capped(&self, max_workers: usize) -> Runtime {
        Runtime::new(self.threads.min(max_workers.max(1)))
    }

    /// Workers that will actually execute `work_items` items: the
    /// requested count, clamped to the work size and to the machine's
    /// available parallelism (oversubscribing cores can only slow the
    /// identical result down).
    fn executing_workers(&self, work_items: usize) -> usize {
        self.threads
            .min(work_items)
            .min(pool::host_workers())
            .max(1)
    }

    /// Splits `data` into contiguous runs of whole rows (each `row_len`
    /// elements) and calls `f(first_row, rows)` on each run, in parallel.
    ///
    /// `f` receives the global index of the run's first row plus the
    /// mutable slice holding those rows back-to-back. For the result to be
    /// deterministic across thread counts, `f` must compute each row from
    /// its global row index alone — never from where the chunk boundary
    /// happens to fall.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `row_len`, or if a
    /// worker closure panics.
    pub fn par_rows<T, F>(&self, data: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(row_len > 0, "par_rows: row_len must be positive");
        assert_eq!(data.len() % row_len, 0, "par_rows: data is not whole rows");
        let rows = data.len() / row_len;
        let workers = self.executing_workers(rows);
        if workers <= 1 {
            f(0, data);
            return;
        }
        let ptr = SendPtr(data.as_mut_ptr());
        let job = |w: usize| {
            let (start, take) = worker_share(rows, workers, w);
            // SAFETY: worker shares are disjoint row ranges of `data`,
            // which outlives the dispatch.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(ptr.get().add(start * row_len), take * row_len)
            };
            f(start, chunk);
        };
        pool::pool().run(workers, &job);
    }

    /// Computes `f(i)` for every `i in 0..len` in parallel and returns the
    /// results in index order.
    ///
    /// Each worker owns a contiguous index range and writes results
    /// straight into their final slots, so the returned vector is
    /// identical at every thread count as long as `f` depends only on its
    /// index argument.
    ///
    /// # Panics
    /// Panics if a worker closure panics.
    pub fn par_map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.executing_workers(len);
        if workers <= 1 {
            return (0..len).map(f).collect();
        }
        let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(len);
        out.resize_with(len, std::mem::MaybeUninit::uninit);
        let ptr = SendPtr(out.as_mut_ptr());
        let job = |w: usize| {
            let (start, take) = worker_share(len, workers, w);
            for i in start..start + take {
                // SAFETY: worker shares are disjoint index ranges.
                unsafe { ptr.get().add(i).write(std::mem::MaybeUninit::new(f(i))) };
            }
        };
        pool::pool().run(workers, &job);
        // SAFETY: the dispatch returned normally, so every slot was
        // written exactly once. (On a worker panic we unwind above and the
        // initialized elements leak rather than double-drop.)
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), len, out.capacity())
        }
    }

    /// Runs `f(shard, &mut shards[shard], &mut states[worker])` for every
    /// shard, in parallel, with a contiguous run of shards per worker.
    ///
    /// This is the data-parallel training primitive: `shards` holds one
    /// disjoint output buffer per **shard** (a fixed, worker-count-
    /// independent partition of the work — gradient accumulators, loss
    /// partials), while `states` holds one scratch value per **worker**
    /// (a pooled tape). Because every shard is computed in full by exactly
    /// one worker and shard boundaries never depend on the worker count,
    /// the shard buffers are bit-identical at any thread count; the caller
    /// then reduces them in ascending shard order for a deterministic sum.
    ///
    /// At most `states.len()` workers execute (serially inline when only
    /// one is available — every shard is still processed individually, in
    /// ascending order, so the sharded code path is identical).
    ///
    /// # Panics
    /// Panics if `states` is empty while `shards` is not, or if a worker
    /// closure panics.
    pub fn par_shards<T, S, F>(&self, shards: &mut [T], states: &mut [S], f: F)
    where
        T: Send,
        S: Send,
        F: Fn(usize, &mut T, &mut S) + Sync,
    {
        let n = shards.len();
        if n == 0 {
            return;
        }
        assert!(!states.is_empty(), "par_shards: need at least one state");
        let workers = self.executing_workers(n).min(states.len());
        if workers <= 1 {
            let state = &mut states[0];
            for (s, shard) in shards.iter_mut().enumerate() {
                f(s, shard, state);
            }
            return;
        }
        let shard_ptr = SendPtr(shards.as_mut_ptr());
        let state_ptr = SendPtr(states.as_mut_ptr());
        let job = |w: usize| {
            let (start, take) = worker_share(n, workers, w);
            // SAFETY: state `w` is touched only by worker `w`; shard
            // ranges are disjoint across workers.
            let state = unsafe { &mut *state_ptr.get().add(w) };
            for s in start..start + take {
                let shard = unsafe { &mut *shard_ptr.get().add(s) };
                f(s, shard, state);
            }
        };
        pool::pool().run(workers, &job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_to_one_and_serial_is_one() {
        assert_eq!(Runtime::new(0).threads(), 1);
        assert_eq!(Runtime::new(6).threads(), 6);
        assert_eq!(Runtime::serial().threads(), 1);
        assert_eq!(Runtime::new(2).threads(), 2);
    }

    #[test]
    fn capped_limits_but_never_zeroes() {
        assert_eq!(Runtime::new(8).capped(3).threads(), 3);
        assert_eq!(Runtime::new(2).capped(5).threads(), 2);
        assert_eq!(Runtime::new(8).capped(0).threads(), 1);
    }

    #[test]
    fn par_map_indexed_matches_serial_at_any_worker_count() {
        let expect: Vec<u64> = (0..1013u64).map(|i| i * i + 7).collect();
        for workers in [1, 2, 3, 7, 16, 2000] {
            let rt = Runtime::new(workers);
            let got = rt.par_map_indexed(1013, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_indexed_handles_empty_and_single() {
        let rt = Runtime::new(4);
        assert!(rt.par_map_indexed(0, |i| i).is_empty());
        assert_eq!(rt.par_map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn par_map_indexed_moves_nontrivial_values() {
        let rt = Runtime::new(3);
        let got = rt.par_map_indexed(97, |i| vec![i; i % 5]);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn par_rows_partitions_exactly_and_uses_global_indices() {
        let row_len = 3;
        let rows = 29;
        for workers in [1, 2, 7, 64] {
            let rt = Runtime::new(workers);
            let mut data = vec![0usize; rows * row_len];
            rt.par_rows(&mut data, row_len, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(row_len).enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        *cell = (first_row + r) * 100 + c;
                    }
                }
            });
            let expect: Vec<usize> = (0..rows)
                .flat_map(|r| (0..row_len).map(move |c| r * 100 + c))
                .collect();
            assert_eq!(data, expect, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn par_rows_rejects_ragged_data() {
        Runtime::serial().par_rows(&mut [0u8; 7], 3, |_, _| {});
    }

    #[test]
    fn from_env_is_at_least_one() {
        assert!(Runtime::from_env().threads() >= 1);
    }

    /// One test covers all malformed values sequentially: env vars are
    /// process-global, so splitting these into separate test fns would
    /// race. The co-resident `from_env_is_at_least_one` holds under every
    /// value this test sets.
    #[test]
    fn from_env_rejects_malformed_values_with_a_warning() {
        let drain_codes = || {
            targad_obs::take_warnings()
                .into_iter()
                .map(|w| w.code)
                .collect::<Vec<_>>()
        };
        drain_codes();
        for bad in ["0", "", "  ", "abc", "-3", "4.5"] {
            std::env::set_var(THREADS_ENV, bad);
            let rt = Runtime::from_env();
            assert_eq!(rt.threads(), 1, "value {bad:?} must fall back to serial");
            assert!(
                drain_codes().contains(&"runtime.threads_invalid"),
                "value {bad:?} must emit runtime.threads_invalid"
            );
        }
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Runtime::from_env().threads(), 3);
        std::env::remove_var(THREADS_ENV);
        assert_eq!(Runtime::from_env().threads(), pool::host_workers());
        assert!(
            !drain_codes().contains(&"runtime.threads_invalid"),
            "valid and unset values must not warn"
        );
    }

    #[test]
    fn par_shards_visits_every_shard_once_in_its_own_buffer() {
        for workers in [1, 2, 3, 7, 16] {
            let rt = Runtime::new(workers);
            let mut shards = vec![0usize; 11];
            let mut states = vec![0usize; workers];
            rt.par_shards(&mut shards, &mut states, |s, shard, state| {
                *shard += s * 10 + 1;
                *state += 1;
            });
            let expect: Vec<usize> = (0..11).map(|s| s * 10 + 1).collect();
            assert_eq!(shards, expect, "workers = {workers}");
            let visits: usize = states.iter().sum();
            assert_eq!(visits, 11, "workers = {workers}");
        }
    }

    #[test]
    fn par_shards_results_are_worker_count_invariant() {
        let run = |workers: usize| {
            let rt = Runtime::new(workers);
            let mut shards = vec![0.0f64; 23];
            let mut states = vec![(); workers];
            rt.par_shards(&mut shards, &mut states, |s, shard, ()| {
                *shard = (s as f64 + 0.1).sin() * 1e3;
            });
            shards
        };
        let serial = run(1);
        for workers in [2, 5, 23, 100] {
            assert_eq!(run(workers), serial, "workers = {workers}");
        }
    }

    #[test]
    fn par_shards_with_no_shards_is_a_no_op() {
        let rt = Runtime::new(4);
        let mut shards: [u8; 0] = [];
        let mut states: [u8; 0] = [];
        rt.par_shards(&mut shards, &mut states, |_, _, _| {
            panic!("must not be called")
        });
    }

    #[test]
    fn nested_parallel_calls_run_inline_and_stay_correct() {
        let rt = Runtime::new(4);
        let outer = rt.par_map_indexed(8, |i| {
            let inner = rt.par_map_indexed(5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(outer, expect);
    }
}
