//! A persistent, process-wide shard worker pool.
//!
//! PR 4's parallel epochs spawned fresh `std::thread::scope` workers for
//! every round, so the per-round spawn cost ate the parallel win on small
//! batches (the ROADMAP "shard worker pool" item). This module keeps a
//! fixed set of parked worker threads alive for the process lifetime and
//! hands them *scoped* jobs: [`WorkerPool::scope`] does not return until
//! every job submitted inside it has finished, which is what makes
//! borrowing stack data (`&mut EpochProcessor`, per-shard index lists)
//! from jobs sound — the same guarantee `std::thread::scope` provides,
//! without the per-call thread creation.
//!
//! The calling thread is not wasted either: while a scope drains, the
//! caller pops and runs queued jobs itself, so a pool of `N` workers
//! yields `N + 1`-way parallelism and a single-hardware-thread host
//! degrades gracefully to inline execution.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased job. Lifetime-wise this is a lie — jobs are transmuted
/// from `'scope` closures — made sound by [`WorkerPool::scope`] blocking
/// until the job count drains to zero before any borrow can dangle.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job lands in the queue.
    job_ready: Condvar,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        self.queue
            .lock()
            .expect("worker queue poisoned")
            .pop_front()
    }
}

/// State of one in-flight [`Scope`]: outstanding job count plus whether
/// any job panicked (propagated to the scope owner, like
/// `std::thread::scope` join failures).
struct ScopeState {
    pending: usize,
    panicked: bool,
}

/// The persistent pool. Obtain the process-wide instance with
/// [`WorkerPool::global`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("worker queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_ready.wait(queue).expect("worker queue poisoned");
            }
        };
        job();
    }
}

impl WorkerPool {
    /// The process-wide pool, spawned on first use with
    /// `available_parallelism() - 1` workers (the caller participates,
    /// so total parallelism matches the hardware). Zero workers on a
    /// single-hardware-thread host — scopes then run every job inline.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::with_workers(threads.saturating_sub(1))
        })
    }

    /// A pool with exactly `workers` persistent threads (tests use this
    /// to force cross-thread execution regardless of the host).
    pub fn with_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("shard-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn shard worker");
        }
        WorkerPool { shared, workers }
    }

    /// Number of persistent worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a [`Scope`] on which jobs borrowing `'env` data can
    /// be spawned, then blocks until every spawned job completed. While
    /// waiting, the calling thread executes queued jobs itself. The
    /// drain runs from a drop guard, so it also happens when `f`
    /// unwinds after spawning — no job may outlive the borrows it
    /// holds, exactly as with `std::thread::scope`.
    ///
    /// # Panics
    /// Panics if any job panicked (after all jobs of the scope drained),
    /// mirroring `std::thread::scope`'s join behaviour.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let state = Arc::new((
            Mutex::new(ScopeState {
                pending: 0,
                panicked: false,
            }),
            Condvar::new(),
        ));
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        let drain = DrainGuard { pool: self, state };
        let out = f(&scope);
        drop(drain); // normal-path drain; also runs if `f` unwound
        let panicked = scope.state.0.lock().expect("scope state poisoned").panicked;
        if panicked {
            panic!("shard worker panicked");
        }
        out
    }
}

/// Blocks until the scope's pending job count drains to zero — from
/// `Drop`, so the barrier holds on both the normal path and unwinding.
/// While waiting, the owning thread helps by executing queued jobs
/// (ours or another scope's — both sound: their scopes are still
/// blocked on them).
struct DrainGuard<'p> {
    pool: &'p WorkerPool,
    state: Arc<(Mutex<ScopeState>, Condvar)>,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        loop {
            {
                let guard = self.state.0.lock().expect("scope state poisoned");
                if guard.pending == 0 {
                    return;
                }
            }
            if let Some(job) = self.pool.shared.pop() {
                job();
            } else {
                let guard = self.state.0.lock().expect("scope state poisoned");
                if guard.pending > 0 {
                    drop(
                        self.state
                            .1
                            .wait_timeout(guard, std::time::Duration::from_millis(1))
                            .expect("scope state poisoned"),
                    );
                }
            }
        }
    }
}

/// A handle for spawning borrowed jobs inside [`WorkerPool::scope`].
pub struct Scope<'env, 'pool> {
    pool: &'pool WorkerPool,
    state: Arc<(Mutex<ScopeState>, Condvar)>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Spawns a job that may borrow `'env` data. With zero pool workers
    /// the job runs inline immediately.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(&self.state);
        state.0.lock().expect("scope state poisoned").pending += 1;
        let tracked = move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut guard = state.0.lock().expect("scope state poisoned");
            guard.pending -= 1;
            if result.is_err() {
                guard.panicked = true;
            }
            drop(guard);
            state.1.notify_all();
        };
        if self.pool.workers == 0 {
            tracked();
            return;
        }
        // SAFETY: the job borrows only `'env` data; `WorkerPool::scope`
        // does not return — normally or by unwinding, thanks to the
        // `DrainGuard` — before this job's completion decrements the
        // scope's pending count, so every borrow outlives the job. This
        // is the same containment argument as `std::thread::scope`,
        // with the scope-exit barrier implemented by the pending-count
        // drain loop instead of thread joins.
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(tracked);
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool
            .shared
            .queue
            .lock()
            .expect("worker queue poisoned")
            .push_back(job);
        self.pool.shared.job_ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::with_workers(2);
        let mut slots = [0u64; 16];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || {
                    *slot = (i as u64 + 1) * 10;
                });
            }
        });
        assert_eq!(slots[0], 10);
        assert_eq!(slots[15], 160);
        assert!(slots.iter().all(|&s| s > 0));
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::with_workers(0);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn sequential_scopes_reuse_the_same_workers() {
        let pool = WorkerPool::with_workers(1);
        for round in 0..50usize {
            let mut out = vec![0usize; 4];
            pool.scope(|scope| {
                for (i, slot) in out.iter_mut().enumerate() {
                    scope.spawn(move || *slot = round + i);
                }
            });
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3]);
        }
    }

    #[test]
    fn unwinding_scope_closure_still_drains_jobs() {
        // if the scope closure panics after spawning, the drop guard
        // must block until every spawned job finished — otherwise jobs
        // would outlive the borrows they hold
        let pool = WorkerPool::with_workers(2);
        let mut slots = [0u64; 8];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for (i, slot) in slots.iter_mut().enumerate() {
                    scope.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        *slot = i as u64 + 1;
                    });
                }
                panic!("mid-scope failure");
            });
        }));
        assert!(result.is_err(), "closure panic must propagate");
        // every job ran to completion before scope unwound
        assert!(slots.iter().all(|&s| s > 0), "{slots:?}");
    }

    #[test]
    fn worker_panic_propagates_to_scope() {
        let pool = WorkerPool::with_workers(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err(), "scope must re-panic");
        // the worker survives the panic and serves the next scope
        let mut ok = false;
        pool.scope(|scope| {
            scope.spawn(|| {}); // keep a job in flight
        });
        pool.scope(|scope| {
            let flag = &mut ok;
            scope.spawn(move || *flag = true);
        });
        assert!(ok, "worker died after a job panic");
    }
}
