//! Order-preserving parallel map over a work list.
//!
//! The evaluation harness fans benchmark × scheme combinations out across
//! cores. The container has no crates.io access, so instead of rayon this
//! crate implements the one primitive the workspace needs — a scoped
//! thread-pool `par_map` — on `std::thread::scope`. Results always come
//! back in input order, so parallel and serial runs produce byte-identical
//! reports.
//!
//! The caller picks the fan-out with a [`Threads`] policy. Under
//! [`Threads::Auto`] the thread count defaults to
//! [`std::thread::available_parallelism`] and can be pinned with
//! `SLC_PAR_THREADS`, a positive integer (surrounding whitespace ignored).
//! `SLC_PAR_THREADS=1` forces the serial path (also the fallback for empty
//! and single-item inputs). Anything else — `0`, the empty string, a typo
//! — follows `SLC_SCALE`'s rule: the process prints the offending value
//! and exits with status 2, because a pinned knob must neither silently
//! mean "all cores" nor silently mean "serial".
//!
//! ```
//! use slc_par::{par_map, Threads};
//!
//! let squares = par_map(vec![1u64, 2, 3, 4], Threads::Auto, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Whether the current thread is already a `par_map` worker. Nested
    /// `par_map` calls (e.g. a per-snapshot fan-out inside a per-workload
    /// fan-out) then run serially on the worker instead of multiplying
    /// live threads to ~cores² and paying a spawn per inner call; output
    /// is unchanged either way (the map is order-preserving).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How a [`par_map`] fans out across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Hardware parallelism, `SLC_PAR_THREADS`-capped (see the module docs).
    Auto,
    /// One thread, no pool.
    Serial,
    /// Exactly this many workers (still clamped to the item count) — how
    /// tests exercise the threaded path on single-core hosts without
    /// mutating process-global environment.
    Exact(usize),
}

/// Thread cap for one `SLC_PAR_THREADS` value: unset defers to the
/// hardware count, a positive integer (trimmed) is the cap, and anything
/// else is an error naming the value — see the module docs.
fn cap_from_env(var: Option<&str>, hw: usize) -> Result<usize, String> {
    let Some(v) = var else { return Ok(hw) };
    match v.trim().parse::<usize>() {
        Ok(cap) if cap > 0 => Ok(cap),
        _ => Err(format!("SLC_PAR_THREADS={v:?} is not a positive integer")),
    }
}

/// Number of worker threads `threads` gives `n` items: 1 inside a nested
/// call, otherwise the policy's count clamped to `1..=n`. Under
/// [`Threads::Auto`] an unusable `SLC_PAR_THREADS` (non-UTF-8 included)
/// prints the error and exits with status 2.
///
/// [`par_map`] runs this many threads; a caller that splits its work into
/// one contiguous run per worker sizes the runs with it.
pub fn worker_count(threads: Threads, n: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1; // nested call: stay on the current worker thread
    }
    let workers = match threads {
        Threads::Serial => 1,
        Threads::Exact(workers) => workers,
        Threads::Auto => {
            let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            let var = std::env::var_os("SLC_PAR_THREADS");
            let cap = cap_from_env(var.as_deref().map(|v| v.to_string_lossy()).as_deref(), hw);
            cap.unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2)
            })
        }
    };
    workers.clamp(1, n.max(1))
}

/// Maps `f` over `items` under the `threads` policy, preserving input
/// order: the output is the same whatever the policy.
///
/// Items are distributed dynamically (an atomic cursor), so uneven work —
/// one slow benchmark among nine — does not idle the other workers.
/// Panics in `f` propagate to the caller once all threads have stopped.
pub fn par_map<T, U, F>(items: Vec<T>, threads: Threads, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count(threads, n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = slots[i].lock().expect("slot poisoned").take().expect("taken once");
            let result = f(item);
            *out[i].lock().expect("slot poisoned") = Some(result);
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        // Join by hand: the scope's own join replaces a worker's panic
        // payload with a generic "a scoped thread panicked".
        let mut panicked = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_cap_zero_and_garbage_mean_serial() {
        // Pure-function test (no process-global env mutation, which would
        // race with other tests). The name is from when 0 and garbage
        // clamped to one worker; now each is an error naming the value,
        // never a silent serial run or a fan-out across every core.
        for bad in ["0", "garbage", "", "  ", "-3", "2.5", "4x", "\u{fffd}"] {
            let err = cap_from_env(Some(bad), 8).expect_err(bad);
            assert_eq!(err, format!("SLC_PAR_THREADS={bad:?} is not a positive integer"));
        }
        // Explicit counts and whitespace-padded counts pass through.
        assert_eq!(cap_from_env(Some("1"), 8), Ok(1));
        assert_eq!(cap_from_env(Some("4"), 8), Ok(4));
        assert_eq!(cap_from_env(Some(" 4 "), 8), Ok(4));
        // More threads than cores is honoured (worker_count still clamps
        // to the item count).
        assert_eq!(cap_from_env(Some("16"), 8), Ok(16));
        // Unset defers to the hardware count.
        assert_eq!(cap_from_env(None, 8), Ok(8));
    }

    #[test]
    fn nested_par_map_runs_serially_on_the_worker() {
        // Each test runs on its own thread, so flipping the thread-local
        // here is isolated: with the worker flag set, worker_count must
        // clamp to 1 no matter the hardware or item count.
        IN_WORKER.with(|w| w.set(true));
        assert_eq!(worker_count(Threads::Exact(64), 64), 1);
        IN_WORKER.with(|w| w.set(false));
        // And nested maps still produce correct, ordered output.
        let out = par_map((0..8usize).collect(), Threads::Exact(3), |i| {
            par_map((0..4usize).collect(), Threads::Exact(4), move |j| i * 10 + j)
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = par_map(input, Threads::Auto, |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), Threads::Auto, |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], Threads::Auto, |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_completes() {
        let out = par_map((0..64usize).collect(), Threads::Auto, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker panic")]
    fn panics_propagate() {
        let _ = par_map(vec![1, 2, 3], Threads::Auto, |x| {
            if x == 2 {
                panic!("worker panic");
            }
            x
        });
    }
}
