//! Deterministic parallel map: the scoped-thread work-pull pattern.
//!
//! Workers pull job indices from a shared atomic counter and write each
//! result into its job's slot, so the output vector is **in job order and
//! byte-identical for any worker count** — the property the Monte Carlo
//! harness pioneered, generalized here for any fan-out (config sweeps,
//! calibration anchors, experiment batches).
//!
//! Determinism contract: `f` must be a pure function of its item (no
//! shared mutable state, no wall clock, no unseeded randomness). The
//! scheduler then only decides *when* each `f(item)` runs, never *what*
//! it returns, and `par_map(items, t, f) == items.iter().map(f)` for
//! every `t`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `--threads`-style worker count: `0` means one worker per
/// available core; the result is clamped to `[1, jobs]` so no worker ever
/// starts without work.
pub(crate) fn resolve_workers(threads: usize, jobs: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    t.max(1).min(jobs.max(1))
}

/// Map `f` over `items` with `threads` scoped workers (`0` = one per
/// core).
///
/// Results come back in item order regardless of scheduling; a single
/// worker degenerates to a plain serial loop with no thread spawned.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = resolve_workers(threads, n);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                // Poison recovery: a panic in another worker's `f` must
                // not cascade into secondary lock panics here — the slot
                // data is index-owned, never half-written.
                slots
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        // Slot invariant: the work-pull loop writes every index in 0..n
        // exactly once before the scope joins, so this cannot fire.
        .map(|r| r.expect("every job filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(&items, threads, |&i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_slice_hands_out_items() {
        let words = ["a", "bb", "ccc"];
        assert_eq!(par_map(&words, 2, |s| s.len()), [1, 2, 3]);
    }

    #[test]
    fn par_map_empty_is_empty() {
        let out: Vec<u64> = par_map(&[0u8; 0], 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_resolution_clamps_to_jobs() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 100), 2);
        assert_eq!(resolve_workers(5, 0), 1);
        assert!(resolve_workers(0, 64) >= 1);
    }

    #[test]
    fn more_workers_than_cores_still_complete() {
        let out = par_map(&[0, 1, 2, 3, 4], 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }
}
