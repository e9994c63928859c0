//! The shared execution pool: scoped-thread fan-out used by both the
//! morsel-claiming aggregation kernel ([`crate::exec::aggregate_morsel`])
//! and batched request execution ([`crate::db::Database::run_request`]).
//!
//! There is deliberately no long-lived thread-pool object: workers are
//! `std::thread::scope` threads spawned per fan-out, which keeps every
//! borrow of table columns / compiled predicates lifetime-checked and
//! costs only a few tens of microseconds per query — negligible against
//! the row-scan work this module is gated behind (see
//! `ParallelConfig::min_parallel_rows`).
//!
//! **Nesting guard.** A ZQL flush can fan out across queries *and* each
//! query could fan out across row morsels. To avoid `P × P`
//! oversubscription, workers run with a thread-local `IN_POOL` flag set;
//! [`effective_threads`] reports `1` inside a worker, so whichever layer
//! fans out first claims the hardware and inner layers run serially.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// How many worker threads a fan-out should use. `requested == 0` means
/// "auto" (all hardware threads). Returns `1` when called from inside a
/// pool worker (see module docs) so parallel sections never nest.
pub fn effective_threads(requested: usize) -> usize {
    if IN_POOL.with(|c| c.get()) {
        return 1;
    }
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// True while running inside a pool worker.
pub fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Run `n_workers` scoped workers and collect their results in worker
/// order. Worker 0..n-1 each receive their index; results are
/// deterministic given a deterministic `f`.
pub fn run_workers<T: Send, F: Fn(usize) -> T + Sync>(n_workers: usize, f: F) -> Vec<T> {
    assert!(n_workers >= 1);
    if n_workers == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|i| {
                let f = &f;
                s.spawn(move || {
                    IN_POOL.with(|c| c.set(true));
                    f(i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's original panic payload so the
                // user sees their assertion message, not a generic one.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Apply a fallible function to `0..n_items` with up to `max_threads`
/// workers (0 = auto), preserving item order. Items are claimed from a
/// shared atomic counter, so uneven per-item cost balances out. Once any
/// item fails, unstarted items are abandoned (matching serial
/// short-circuiting) and the failing item with the lowest index wins.
pub fn try_parallel_map<T, E, F>(n_items: usize, max_threads: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = effective_threads(max_threads).min(n_items.max(1));
    if threads <= 1 || n_items <= 1 {
        return (0..n_items).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n_items).map(|_| Mutex::new(None)).collect();
    run_workers(threads, |_| loop {
        if failed.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_items {
            break;
        }
        let r = f(i);
        if r.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        *crate::fault::lock_recover(&slots[i]) = Some(r);
    });
    let mut out = Vec::with_capacity(n_items);
    let mut first_err: Option<E> = None;
    for slot in slots {
        // A slot writer can only poison its mutex after the assignment
        // completed (plain `Option` store), so the recovered value is
        // intact either way.
        let Some(result) = slot.into_inner().unwrap_or_else(|p| p.into_inner()) else {
            // Abandoned after another item failed.
            continue;
        };
        match result {
            Ok(v) => out.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_errors() {
        let out: Result<Vec<usize>, String> = try_parallel_map(100, 4, |i| Ok(i * 2));
        assert_eq!(out.unwrap(), (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let err: Result<Vec<usize>, String> = try_parallel_map(100, 4, |i| {
            if i == 63 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(err.unwrap_err(), "boom 63");
    }

    #[test]
    fn parallel_map_aborts_unstarted_items_after_failure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let err: Result<Vec<usize>, &str> = try_parallel_map(10_000, 4, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err("first item fails")
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(i)
            }
        });
        assert_eq!(err.unwrap_err(), "first item fails");
        assert!(
            ran.load(Ordering::Relaxed) < 10_000,
            "remaining items should be abandoned after the failure"
        );
    }

    #[test]
    fn worker_panics_propagate_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_workers(2, |i| {
                if i == 1 {
                    panic!("original worker message");
                }
                i
            })
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "original worker message");
    }

    #[test]
    fn workers_do_not_nest() {
        let nested: Vec<usize> = run_workers(2, |_| effective_threads(8));
        assert_eq!(
            nested,
            vec![1, 1],
            "inside a worker the pool reports one thread"
        );
        assert_ne!(effective_threads(8), 0);
    }

    #[test]
    fn run_workers_ordered_results() {
        assert_eq!(run_workers(4, |i| i * i), vec![0, 1, 4, 9]);
    }
}
