//! Thread pool: real-core execution under the simulated cost model.
//!
//! The runtime models *cluster* parallelism on a simulated clock (slots,
//! waves, startup overheads — see [`crate::scheduler`]), but task bodies
//! are real computations and deserve real cores. This module provides the
//! [`Executor`]: a hand-rolled pool (no external crates — the build is
//! offline) that every task-granular site in [`crate::job`] routes
//! through:
//!
//! * map attempts and reduce attempts across a phase,
//! * the opening (checksum verification) of a reducer's fetched runs,
//! * a big reducer's final merge (one sub-task per key range),
//! * chunks of a batch's distinct queries in the serving tier.
//!
//! # Architecture
//!
//! One `Mutex` guards the list of open batches, newest last, and one
//! `Condvar` wakes idle threads. `threads - 1` workers and every
//! submitting thread run the same loop: claim the next index of the
//! newest open batch under the lock (the batch closes when its last index
//! is claimed), run it outside the lock, and wake the pool when that run
//! was the batch's last to finish. A worker loops until the pool shuts
//! down; a submitter until its own batch has finished, helping any open
//! batch meanwhile. A **nested** batch — a reduce task submitting its run
//! opens or key ranges — is the newest, so it is claimed first, and its
//! submitter helps drain it: the pool never deadlocks on recursive
//! parallelism. Every task is coarse (a map or reduce task, a key range,
//! a run open, a chunk of queries), so one lock per claimed index
//! costs nothing that per-worker deques would save.
//!
//! With `threads == 1` the pool spawns no workers and every batch runs
//! inline on the caller, in index order — the fully serial baseline that
//! the determinism proptests compare multi-threaded runs against.
//!
//! # Determinism contract
//!
//! The pool executes closures concurrently but never *collects*
//! concurrently: results are written positionally by task index
//! ([`Executor::run_indexed`] returns `results[i] == f(i, &items[i])`
//! regardless of completion order), a panic is re-raised on the
//! submitting thread (the lowest-index one if several tasks panic), and
//! nothing about scheduling (which thread ran which index, timing) is
//! observable in the return value. Callers that fold worker output into
//! shared state do so *after* the batch joins, in index order. See
//! `DESIGN.md` §15 for the full cross-layer invariant.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

thread_local! {
    /// 1-based worker id on pool threads, 0 on every other thread.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// The slot index of the current thread for per-worker state (e.g. the
/// sharded spill-buffer pool): `0` for any non-pool thread (the driver,
/// a test harness), `1..=workers` on pool workers.
pub fn worker_slot() -> usize {
    WORKER_SLOT.with(Cell::get)
}

/// Longest an idle thread sleeps before it re-checks the open batches.
/// Correctness does not need it: everything a sleeper waits for (a batch
/// opened, a batch's last run finished, shutdown) is changed under the
/// lock and announced after it. It stays for speed: on 2 vCPUs at one
/// worker, sleeping until notified read `stream-serve` `work_per_s`
/// × 0.928 and × 0.979 in two rounds of three alternating pairs
/// (EXPERIMENTS.md, "One list of open batches").
const IDLE_RECHECK: Duration = Duration::from_millis(1);

/// Locks `m`, taking a poisoned guard as is: no closure ever runs while
/// a pool or result-slot lock is held, so a poisoned one still guards
/// consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased batch closure. The raw pointer outlives every execution
/// because the submitting call blocks (helping) until `remaining` hits
/// zero — the standard scoped-pool latch argument.
struct RawRun(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// fine) and the submitter keeps it alive for the batch's whole lifetime.
unsafe impl Send for RawRun {}
unsafe impl Sync for RawRun {}

/// One submitted batch.
struct Batch {
    run: RawRun,
    /// Runs not yet finished; the submitter's latch. Changed and read
    /// only under the pool lock, whose unlock / lock pair orders it and
    /// the result-slot writes before it.
    remaining: AtomicUsize,
}

/// Everything the pool lock guards.
struct State {
    /// Batches with unclaimed indices, oldest first, each with the
    /// indices not yet claimed (never empty).
    open: Vec<(Arc<Batch>, Range<usize>)>,
    shutdown: bool,
}

impl State {
    /// Claims the next index of the newest open batch, closing the batch
    /// when that index was its last.
    fn claim(&mut self) -> Option<(Arc<Batch>, usize)> {
        let (batch, unclaimed) = self.open.last_mut()?;
        let index = unclaimed.next()?;
        let batch = if unclaimed.start == unclaimed.end {
            self.open.pop()?.0
        } else {
            Arc::clone(batch)
        };
        Some((batch, index))
    }
}

/// Pool state shared between the handle and the workers.
struct Shared {
    state: Mutex<State>,
    /// Wakes idle threads: a batch opened, a batch's last run finished,
    /// or the pool is shutting down.
    wake: Condvar,
}

impl Shared {
    /// The loop workers and submitters share: until `done`, claim an
    /// index, run it outside the lock, and wake every sleeper when that
    /// run was its batch's last to finish.
    fn work(&self, done: impl Fn(&State) -> bool) {
        let mut state = lock(&self.state);
        while !done(&state) {
            let Some((batch, index)) = state.claim() else {
                state = self
                    .wake
                    .wait_timeout(state, IDLE_RECHECK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            };
            drop(state);
            // SAFETY: see `RawRun` — this index has not finished, so its
            // submitter is still waiting and the closure is alive.
            unsafe { (*batch.run.0)(index) };
            state = lock(&self.state);
            if batch.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.wake.notify_all();
            }
        }
    }
}

/// A thread pool executing job-task bodies on real cores. See the
/// [module docs](self) for the architecture and the determinism
/// contract. Owned by [`crate::Cluster`]; sized by
/// [`crate::ClusterConfig::threads`].
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Executor {
    /// A pool executing on `threads` real threads: the caller plus
    /// `threads - 1` spawned workers. `threads == 1` spawns nothing and
    /// runs every batch inline (the serial baseline).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                open: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dwm-worker-{}", slot - 1))
                    .spawn(move || {
                        WORKER_SLOT.with(|s| s.set(slot));
                        shared.work(|state| state.shutdown);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Executor { shared, handles }
    }

    /// Total execution threads (caller + workers) — the configured
    /// `ClusterConfig::threads`.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Whether batches can actually run concurrently (more than one
    /// thread). Callers use this to skip parallel-only restructuring
    /// overhead on the serial baseline.
    pub fn is_parallel(&self) -> bool {
        !self.handles.is_empty()
    }

    /// Runs `f(i, &items[i])` for every item, returning results in item
    /// order regardless of completion order. Results may borrow from
    /// `items`.
    pub fn run_indexed<'a, T, R>(
        &self,
        items: &'a [T],
        f: impl Fn(usize, &'a T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let n = items.len();
        if !self.is_parallel() || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Each slot takes its index's result or panic payload, so a
        // crashing task leaves its thread in the pool.
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        self.run_batch(n, &|i| {
            let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
            *lock(&slots[i]) = Some(r);
        });
        slots
            .into_iter()
            .map(|s| {
                let r = s.into_inner().unwrap_or_else(PoisonError::into_inner);
                r.expect("every index filled")
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    }

    /// Opens a batch of `n ≥ 1` indices, then runs the shared loop until
    /// every one of them has finished.
    fn run_batch(&self, n: usize, run: &(dyn Fn(usize) + Sync)) {
        // SAFETY: erasing the closure's lifetime is sound because this
        // function does not return until `remaining == 0`, i.e. until no
        // execution of `run` is in flight or unclaimed.
        let run: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run)
        };
        let batch = Arc::new(Batch {
            run: RawRun(run),
            remaining: AtomicUsize::new(n),
        });
        lock(&self.shared.state)
            .open
            .push((Arc::clone(&batch), 0..n));
        self.shared.wake.notify_all();
        self.shared
            .work(|_| batch.remaining.load(Ordering::Relaxed) == 0);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional_and_match_serial() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4] {
            let pool = Executor::new(threads);
            let got = pool.run_indexed(&items, |i, &x| x * x + i as u64);
            let want: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| x * x + i as u64)
                .collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = Executor::new(4);
        let empty: Vec<u32> = pool.run_indexed(&[] as &[u32], |_, &x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.run_indexed(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Executor::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let totals = pool.run_indexed(&outer, |_, &o| {
            let inner: Vec<usize> = (0..16).collect();
            pool.run_indexed(&inner, |_, &i| o * 100 + i)
                .into_iter()
                .sum::<usize>()
        });
        for (o, &t) in totals.iter().enumerate() {
            assert_eq!(t, o * 100 * 16 + (0..16).sum::<usize>());
        }
    }

    #[test]
    fn panic_propagates_to_submitter() {
        let pool = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(&items, |_, &x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            });
        }));
        let payload = caught.expect_err("panic must surface");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(msg, "boom at 13");
        // The pool survives the panic and stays usable.
        assert_eq!(pool.run_indexed(&[1u32, 2], |_, &x| x * 2), vec![2, 4]);
    }

    #[test]
    fn serial_pool_runs_inline_on_caller() {
        let pool = Executor::new(1);
        assert!(!pool.is_parallel());
        assert_eq!(pool.threads(), 1);
        let here = std::thread::current().id();
        let ids = pool.run_indexed(&[0u8; 5], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == here));
        assert_eq!(worker_slot(), 0);
    }

    #[test]
    fn worker_slots_are_stable_ids() {
        let pool = Executor::new(4);
        let items: Vec<usize> = (0..512).collect();
        let slots = pool.run_indexed(&items, |_, _| {
            // A little work so tasks spread across the pool.
            std::hint::black_box((0..100).sum::<usize>());
            worker_slot()
        });
        // Every observed slot is within 0..=workers (0 = helping caller).
        assert!(slots.iter().all(|&s| s <= 3));
    }

    /// The serving pattern: many connection threads share one pool, and
    /// some of their tasks submit nested batches.
    #[test]
    fn threads_sharing_one_pool_get_positional_results() {
        let pool = Executor::new(3);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for b in 0..200u64 {
                        let len = (t * 7 + b * 13) % 64 + 1;
                        let items: Vec<u64> = (0..len).map(|i| t << 32 | b << 16 | i).collect();
                        let nested = b % 5 == 0;
                        let got = pool.run_indexed(&items, |_, &x| {
                            if nested {
                                pool.run_indexed(&[x, x + 1, x + 2], |_, &y| y).iter().sum()
                            } else {
                                3 * x + 3
                            }
                        });
                        let want: Vec<u64> = items.iter().map(|&x| 3 * x + 3).collect();
                        assert_eq!(got, want, "thread {t} batch {b}");
                    }
                });
            }
        });
    }

    #[test]
    fn nested_panic_reaches_the_outer_submitter() {
        let pool = Executor::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(&outer, |_, &o| {
                let inner: Vec<usize> = (0..8).collect();
                pool.run_indexed(&inner, |_, &i| {
                    if o == 5 && i == 3 {
                        panic!("nested boom");
                    }
                    i
                })
                .len()
            })
        }));
        let payload = caught.expect_err("nested panic must surface");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("nested boom"));
        // The pool survives and stays usable.
        let want: Vec<usize> = (1..9).collect();
        assert_eq!(pool.run_indexed(&outer, |_, &x| x + 1), want);
    }

    /// A lost wake-up between a finishing run and its waiting submitter
    /// shows up here as a hang (or, with the idle re-check, a stall of
    /// every batch).
    #[test]
    fn many_tiny_batches_all_join() {
        for threads in [2, 4] {
            let pool = Executor::new(threads);
            for b in 0..20_000u32 {
                assert_eq!(
                    pool.run_indexed(&[b, b + 1], |_, &x| x * 2),
                    [b * 2, b * 2 + 2]
                );
            }
        }
    }
}
