//! A shared, long-lived worker pool for batch-parallel stages.
//!
//! Preplay (every engine) and post-consensus validation are invoked once per
//! block, and both used to spawn a fresh `std::thread::scope` for every
//! batch — paying thread creation and teardown thousands of times per run.
//! This module replaces that with one process-wide pool of parked helper
//! threads ([`global`]): a stage submits a *job* of `slots` independent
//! tasks, idle helpers wake up and claim slots, and the submitting thread
//! participates too, blocking until every slot has finished.
//!
//! # Design notes
//!
//! * **The caller is always a worker.** [`WorkerPool::run`] claims slots on
//!   the calling thread alongside the helpers, so a job always makes
//!   progress even when every helper is busy with other jobs (or when the
//!   pool has zero helpers on a single-core machine). No job ever waits on
//!   another job's completion, so jobs cannot deadlock each other.
//! * **Borrowed tasks.** Tasks borrow from the caller's stack exactly like
//!   `std::thread::scope` closures do. The pool erases that lifetime to
//!   store the job in its queue; safety rests on `run` not returning until
//!   `pending == 0` and on exhausted jobs never dereferencing the task
//!   pointer again (a slot is claimed *before* the dereference). This is
//!   the one place in `tb-executor` that needs `unsafe` — the crate is
//!   otherwise `deny(unsafe_code)`.
//! * **Parked, not spinning.** Idle helpers block on a condition variable;
//!   they cost nothing while no stage is running.
//!
//! Panics inside a task are caught per-slot and re-thrown on the submitting
//! thread once the job completes, mirroring the propagation a scoped join
//! would give.

use crate::traits::{available_cores, effective_workers};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Lifetime-erased pointer to a job's task closure.
type RawTask = *const (dyn Fn(usize) + Sync);

/// One submitted job: `slots` independent invocations of the same task.
struct Job {
    task: RawTask,
    slots: usize,
    /// Next unclaimed slot; claims beyond `slots` mean the job is exhausted.
    next_slot: AtomicUsize,
    /// Slots claimed but not yet finished, plus slots never claimed.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a task, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `task` is only dereferenced between a successful slot claim and
// the matching `pending` decrement, and `WorkerPool::run` does not return
// before `pending == 0`, so the borrowed closure outlives every dereference
// even though its lifetime has been erased.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// True once every slot has been claimed; exhausted jobs are dropped
    /// from the queue without touching the task pointer again.
    fn exhausted(&self) -> bool {
        self.next_slot.load(Ordering::Acquire) >= self.slots
    }

    /// Claims and runs slots until none are left.
    fn run_slots(&self) {
        loop {
            let slot = self.next_slot.fetch_add(1, Ordering::AcqRel);
            if slot >= self.slots {
                return;
            }
            // SAFETY: this slot is claimed but not finished, so `pending > 0`
            // and the submitter is still blocked in `run`; the referent of
            // `task` is alive (see the `Send`/`Sync` impls above).
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(slot))) {
                let mut first = self.panic.lock().unwrap();
                if first.is_none() {
                    *first = Some(payload);
                }
            }
            let mut pending = self.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every slot has finished.
    fn wait_done(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap();
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
}

/// A long-lived pool of parked helper threads executing batch-parallel jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    helpers: usize,
}

impl WorkerPool {
    /// Starts a pool with `helpers` parked helper threads. The threads live
    /// for the rest of the process; they are parked whenever the queue is
    /// empty.
    fn start(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for i in 0..helpers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("tb-pool-{i}"))
                .spawn(move || helper_loop(&shared))
                .expect("spawning a pool helper thread failed");
        }
        WorkerPool { shared, helpers }
    }

    /// Runs `task(slot)` once for every `slot` in `0..slots`, in parallel
    /// across the pool's helpers and the calling thread, and returns once
    /// every slot has finished. With `slots <= 1` or a helper-less pool the
    /// whole job runs inline on the caller — single-core machines measure
    /// exactly the sequential cost.
    ///
    /// # Panics
    ///
    /// If a task panics, the first panic payload is re-thrown on the calling
    /// thread after the remaining slots have completed.
    pub fn run(&self, slots: usize, task: &(dyn Fn(usize) + Sync)) {
        if slots == 0 {
            return;
        }
        if slots == 1 || self.helpers == 0 {
            // Inline fallback with the same panic contract as the pooled
            // path: every slot runs, the first panic is re-thrown at the end.
            let mut first_panic = None;
            for slot in 0..slots {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(slot))) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return;
        }
        let job = Arc::new(Job {
            task: erase(task),
            slots,
            next_slot: AtomicUsize::new(0),
            pending: Mutex::new(slots),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.shared
            .queue
            .lock()
            .unwrap()
            .push_back(Arc::clone(&job));
        self.shared.work_ready.notify_all();
        // The caller claims slots alongside the helpers, then blocks until
        // the last claimed slot finishes.
        job.run_slots();
        job.wait_done();
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Erases the borrow lifetime of a task so it can sit in the pool's queue.
/// Sound only because [`WorkerPool::run`] blocks until the job is drained —
/// see the safety comment on [`Job`]'s `Send`/`Sync` impls.
fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> RawTask {
    let ptr: *const (dyn Fn(usize) + Sync + 'a) = task;
    // SAFETY: only the lifetime is erased; pointer layout is unchanged. The
    // referent outlives every dereference because `run` blocks until the
    // job is drained (see the `Send`/`Sync` impls on `Job`).
    unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), RawTask>(ptr) }
}

fn helper_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                while queue.front().is_some_and(|job| job.exhausted()) {
                    queue.pop_front();
                }
                match queue.front() {
                    Some(job) => break Arc::clone(job),
                    None => queue = shared.work_ready.wait(queue).unwrap(),
                }
            }
        };
        job.run_slots();
    }
}

/// The process-wide pool, created on first use with `available_cores() - 1`
/// helper threads (the submitting thread is the extra worker, so a job with
/// up to `available_cores()` slots runs fully parallel without
/// oversubscribing the machine).
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::start(available_cores().saturating_sub(1)))
}

/// Runs `task(idx)` once for every `idx` in `0..len` on
/// `effective_workers(requested)` slots of the [`global`] pool (never more
/// slots than indices). Each slot claims the next index from a shared
/// cursor, so one slow index never holds up the others.
pub(crate) fn for_each_index(requested: usize, len: usize, task: &(dyn Fn(usize) + Sync)) {
    let cursor = AtomicUsize::new(0);
    global().run(effective_workers(requested).min(len), &|_slot| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= len {
            break;
        }
        task(idx);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn every_slot_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        global().run(counters.len(), &|slot| {
            counters[slot].fetch_add(1, Ordering::SeqCst);
        });
        for (slot, counter) in counters.iter().enumerate() {
            assert_eq!(counter.load(Ordering::SeqCst), 1, "slot {slot}");
        }
    }

    #[test]
    fn jobs_with_more_slots_than_threads_complete() {
        let total = AtomicUsize::new(0);
        let slots = (global().helpers + 1) * 4 + 3;
        global().run(slots, &|_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), slots);
    }

    #[test]
    fn the_pool_is_reusable_across_jobs() {
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            global().run(8, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn concurrent_submitters_all_finish() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let total = AtomicUsize::new(0);
                    for _ in 0..20 {
                        global().run(6, &|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    assert_eq!(total.load(Ordering::SeqCst), 120);
                });
            }
        });
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            global().run(8, &|slot| {
                if slot == 3 {
                    panic!("slot 3 exploded");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        assert_eq!(
            survivors.load(Ordering::SeqCst),
            7,
            "the other slots still ran"
        );
        // The pool survives the panic and keeps serving jobs.
        let ran = AtomicBool::new(false);
        global().run(2, &|_| ran.store(true, Ordering::SeqCst));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_and_single_slot_jobs_run_inline() {
        global().run(0, &|_| panic!("a zero-slot job must not run anything"));
        let caller = std::thread::current().id();
        global().run(1, &|slot| {
            assert_eq!(slot, 0);
            assert_eq!(
                std::thread::current().id(),
                caller,
                "single-slot jobs run on the caller"
            );
        });
    }
}
