//! Work-stealing thread pool: real-core execution under the simulated
//! cost model.
//!
//! The runtime models *cluster* parallelism on a simulated clock (slots,
//! waves, startup overheads — see [`crate::scheduler`]), but task bodies
//! are real computations and deserve real cores. This module provides the
//! [`Executor`]: a hand-rolled work-stealing pool (no external crates —
//! the container is offline) that every task-granular site in
//! [`crate::job`] routes through:
//!
//! * map attempts and reduce attempts across a phase,
//! * intermediate k-way merge passes (one sub-task per contiguous run
//!   group),
//! * a big reducer's final merge (one sub-task per key range),
//! * chunks of a batch's distinct queries in the serving tier.
//!
//! # Architecture
//!
//! `threads - 1` worker threads each own a [`Mutex`]`<VecDeque>` deque.
//! A batch submission pushes its task indices round-robin across the
//! deques (task *i* lands on deque `i % workers`) and wakes the pool; a
//! worker pops from the **front** of its own deque (the round-robin
//! order) and, when empty, steals from the **back** of the other deques
//! in cyclic order starting at its right-hand neighbour — the classic
//! arrangement that keeps owners and thieves on opposite ends. The
//! submitting thread does not idle: it helps by stealing until its batch
//! completes, which also makes **nested** submission safe — a reduce
//! task running on a worker can submit its merge-pass groups as a
//! sub-batch and help drain the pool while it waits, so the pool never
//! deadlocks on recursive parallelism.
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
//! regardless of completion order), panics are re-raised on the
//! submitting thread, and nothing about scheduling (which worker ran
//! which index, steal order, timing) is observable in the return value.
//! Callers that fold worker output into shared state do so *after* the
//! batch joins, in index order. See `DESIGN.md` §15 for the full
//! cross-layer invariant.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// Type-erased batch closure. The raw pointer outlives every execution
/// because the submitting call blocks (helping) until `remaining` hits
/// zero — the standard scoped-pool latch argument.
struct RawRun(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// fine) and the submitter keeps it alive for the batch's whole lifetime.
unsafe impl Send for RawRun {}
unsafe impl Sync for RawRun {}

/// Shared state of one submitted batch.
struct Batch {
    run: RawRun,
    /// Task executions not yet finished; the submitter's latch.
    remaining: AtomicUsize,
    /// First panic payload raised by any task, re-raised on the
    /// submitting thread once the batch joins.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Wakes the submitter when `remaining` reaches zero.
    done_mx: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Executes one index of the batch, catching panics so a worker
    /// thread survives a crashing task (the payload is re-raised on the
    /// submitter, preserving serial semantics).
    fn execute(&self, index: usize) {
        // SAFETY: see `RawRun` — the submitter outlives the batch.
        let run = unsafe { &*self.run.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(index))) {
            let mut slot = self.panic.lock().expect("panic slot");
            slot.get_or_insert(payload);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done_mx.lock().expect("done lock") = true;
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// One queued task: an index of a batch.
struct Task {
    batch: Arc<Batch>,
    index: usize,
}

/// Pool state shared between the handle and the workers.
struct Shared {
    /// One deque per worker; owners pop the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Sleep/wake coordination for idle workers.
    idle_mx: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops the front of `own`'s deque, else steals the back of the
    /// other deques in cyclic order starting after `own`. `own ==
    /// usize::MAX` (a helping submitter) scans every deque from 0.
    fn find_task(&self, own: usize) -> Option<Task> {
        let n = self.queues.len();
        if own < n {
            if let Some(t) = self.queues[own].lock().expect("queue lock").pop_front() {
                return Some(t);
            }
        }
        let first = if own < n { own + 1 } else { 0 };
        for k in 0..n {
            let q = (first + k) % n;
            if own < n && q == own {
                continue;
            }
            if let Some(t) = self.queues[q].lock().expect("queue lock").pop_back() {
                return Some(t);
            }
        }
        None
    }

    fn worker_loop(&self, id: usize) {
        WORKER_SLOT.with(|s| s.set(id + 1));
        loop {
            if let Some(task) = self.find_task(id) {
                task.batch.execute(task.index);
                continue;
            }
            let guard = self.idle_mx.lock().expect("idle lock");
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Re-check under the lock (submission notifies under it), with
            // a timeout as a lost-wakeup backstop.
            let queued = self
                .queues
                .iter()
                .any(|q| !q.lock().expect("queue lock").is_empty());
            if !queued {
                let _unused = self
                    .idle_cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("idle wait");
            }
        }
    }
}

/// A work-stealing thread pool executing job-task bodies on real cores.
/// See the [module docs](self) for the architecture and the determinism
/// contract. Owned by [`crate::Cluster`]; sized by
/// [`crate::ClusterConfig::threads`].
#[derive(Debug)]
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.queues.len())
            .finish()
    }
}

impl Executor {
    /// A pool executing on `threads` real threads: the caller plus
    /// `threads - 1` spawned workers. `threads == 1` spawns nothing and
    /// runs every batch inline (the serial baseline).
    pub fn new(threads: usize) -> Self {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle_mx: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dwm-worker-{id}"))
                    .spawn(move || shared.worker_loop(id))
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
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run_batch(n, &|i| {
            let r = f(i, &items[i]);
            *slots[i].lock().expect("result slot") = Some(r);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot")
                    .expect("every index filled")
            })
            .collect()
    }

    /// Distributes `n` task indices round-robin across the worker
    /// deques, then helps execute until the batch completes. Re-raises
    /// the first task panic on this thread.
    fn run_batch(&self, n: usize, run: &(dyn Fn(usize) + Sync)) {
        // SAFETY: erasing the closure's lifetime is sound because this
        // function does not return until `remaining == 0`, i.e. until no
        // execution of `run` is in flight or queued.
        let run: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run)
        };
        let batch = Arc::new(Batch {
            run: RawRun(run),
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done_mx: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let workers = self.shared.queues.len();
        for i in 0..n {
            self.shared.queues[i % workers]
                .lock()
                .expect("queue lock")
                .push_back(Task {
                    batch: Arc::clone(&batch),
                    index: i,
                });
        }
        {
            let _guard = self.shared.idle_mx.lock().expect("idle lock");
            self.shared.idle_cv.notify_all();
        }
        // Help: steal queued tasks (from this batch or any nested one)
        // until every task of this batch has finished.
        while !batch.is_done() {
            match self.shared.find_task(usize::MAX) {
                Some(task) => task.batch.execute(task.index),
                None => {
                    let guard = batch.done_mx.lock().expect("done lock");
                    if !*guard && !batch.is_done() {
                        let _unused = batch
                            .done_cv
                            .wait_timeout(guard, Duration::from_micros(200))
                            .expect("done wait");
                    }
                }
            }
        }
        let payload = batch.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let _guard = self.shared.idle_mx.lock().expect("idle lock");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.idle_cv.notify_all();
        }
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
}
