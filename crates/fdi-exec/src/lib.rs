//! # fdi-exec — a deterministic fork/join executor
//!
//! A zero-dependency (std only) fork/join executor. Its one production
//! user is compiled selection in `fdi-core`
//! (`CompiledQuery::select_par_stats`, behind `fdi serve`'s `select`
//! and the CLI's `select`), which shards its row scan onto an
//! [`Executor`] sized by `FDI_THREADS`. The chases, TEST-FDs and
//! grouping are sequential and take no executor. The crate makes one
//! strong promise:
//!
//! > **Determinism contract.** The result of an [`Executor`] run is a
//! > pure function of the work items and the per-item closure. It is
//! > **bit-identical at every thread count** — 1 thread, 8 threads, or
//! > whatever `FDI_THREADS` says — and therefore identical to the
//! > sequential evaluation of the same items in index order.
//!
//! The contract holds because of two rules, both enforced by this API
//! rather than by caller discipline:
//!
//! 1. **work assignment never leaks into results** — workers pull item
//!    *indices* from a shared cursor, so which thread computes which
//!    item is scheduling-dependent, but each item's closure sees only
//!    `(index, &item)` and its result is stored in the slot of its
//!    index;
//! 2. **merges happen in shard order** — [`Executor::map`] returns the
//!    results as a `Vec` ordered by item index, never by completion
//!    order. Callers that fold shard results (answer sets, memo
//!    tallies) fold that vector left to right, so the merged structure
//!    is the one a single-threaded left-to-right pass would build.
//!
//! ## Why shard on `RowId`
//!
//! The unit of work selection shards is a contiguous range of row
//! *slots* (`fdi-relation`'s `Instance::row_id_shards`). Slot ids are
//! stable under deletes — removing a row tombstones its slot and never
//! renumbers survivors — so a shard boundary drawn today still names
//! the same rows after any amount of churn: per-shard structures never
//! need a cross-shard renumbering barrier, and shard iteration order
//! (ascending slot = insertion = display order) concatenated across
//! shards is exactly the sequential iteration order, which is what
//! makes shard-order merges equal to sequential results.
//!
//! ## `FDI_THREADS` semantics
//!
//! [`Executor::from_env`] reads the `FDI_THREADS` environment variable
//! once per call:
//!
//! * unset, empty, unparsable, or `0` → one thread per available CPU
//!   ([`std::thread::available_parallelism`], falling back to 1);
//! * any positive integer → exactly that many threads, even when it
//!   exceeds the CPU count (useful for exercising real interleavings
//!   on small machines — results are unchanged by the contract above).
//!
//! Thread counts are clamped to [`MAX_THREADS`]. A count of 1 runs the
//! work inline on the calling thread: no threads are spawned, so the
//! 1-thread configuration *is* the sequential evaluation, not a
//! simulation of it.
//!
//! ## Example
//!
//! ```
//! use fdi_exec::Executor;
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let seq = Executor::with_threads(1).map(&items, |i, &x| x * x + i as u64);
//! let par = Executor::with_threads(8).map(&items, |i, &x| x * x + i as u64);
//! assert_eq!(seq, par); // bit-identical at any thread count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper clamp on configured thread counts — far above any real CPU
/// count, it only guards against pathological `FDI_THREADS` values.
pub const MAX_THREADS: usize = 1024;

/// The environment variable consulted by [`Executor::from_env`].
pub const THREADS_ENV: &str = "FDI_THREADS";

/// A fixed-width fork/join executor (see the crate docs for the
/// determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor sized by `FDI_THREADS` (see the crate docs for the
    /// full semantics), defaulting to the available parallelism.
    pub fn from_env() -> Executor {
        let configured = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        Executor::with_threads(configured.unwrap_or_else(available_threads))
    }

    /// An executor with exactly `threads` workers (clamped to
    /// `1..=`[`MAX_THREADS`]). The 1-thread executor runs work inline
    /// on the calling thread.
    pub fn with_threads(threads: usize) -> Executor {
        Executor {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results **in item
    /// order** — the shard-order merge of the determinism contract.
    ///
    /// `f` receives `(index, &item)`. Work is distributed over
    /// `min(threads, items.len())` scoped threads via a shared cursor;
    /// with 1 thread (or ≤ 1 item) everything runs inline. A panic in
    /// any worker is propagated to the caller after the scope joins.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                // A worker panic surfaces here, after every sibling
                // joined — resume it so the caller sees the original
                // payload.
                match handle.join() {
                    Ok(local) => {
                        for (i, value) in local {
                            slots[i] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was assigned to exactly one worker"))
            .collect()
    }
}

/// One thread per available CPU (the `FDI_THREADS`-unset default).
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_at_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 8, 64] {
            let got = Executor::with_threads(threads).map(&items, |_, &x| x * 3 + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = ["a", "b", "c"];
        let got = Executor::with_threads(2).map(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let exec = Executor::with_threads(8);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.map(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert_eq!(Executor::with_threads(usize::MAX).threads(), MAX_THREADS);
        assert_eq!(Executor::with_threads(3).threads(), 3);
    }

    #[test]
    fn workers_never_exceed_items() {
        // 100 items on 8 threads: every index computed exactly once.
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        Executor::with_threads(8).map(&items, |_, &i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            Executor::with_threads(4).map(&items, |_, &i| {
                assert!(i != 17, "boom at 17");
                i
            });
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn shared_state_types_are_sync() {
        // The engines share &Instance-like structures across workers;
        // this is the compile-time shape of that requirement.
        fn assert_sync<T: Sync>() {}
        assert_sync::<Executor>();
    }
}
