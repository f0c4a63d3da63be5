//! Minimal scoped thread pool: an atomic work queue whose results reach
//! the calling thread in index order, so callers see the same output
//! regardless of thread count or interleaving; and `OnceTasks`, the
//! run-once queue whose tasks run on the threads that need them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The workers' stop flag and backpressure gate: indices consumed so
/// far, and the wakeup for workers parked on the bound.
type Gate = (Mutex<usize>, Condvar);

/// Sets the stop flag and wakes every worker parked on the gate when
/// dropped during a panic, so siblings stop pulling new work — instead
/// of draining the queue, or waiting on a notify that never comes —
/// before the panic resurfaces from the scope join.
struct GatePoison<'a> {
    stop: &'a AtomicBool,
    gate: &'a Gate,
}

impl Drop for GatePoison<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.stop.store(true, Ordering::SeqCst);
            let _held = self.gate.0.lock().unwrap_or_else(|e| e.into_inner());
            self.gate.1.notify_all();
        }
    }
}

/// Runs `f(0..n)` across `threads` workers and feeds every result to
/// `consume` **on the calling thread, in index order**, as soon as its
/// contiguous prefix is complete. Out-of-order results are buffered
/// until the gap before them fills — so `consume` observes exactly the
/// sequence `(0, f(0)), (1, f(1)), …` regardless of thread count or
/// interleaving, while the workers keep streaming ahead. This is the
/// substrate of the campaign's deterministic [`ResultSink`] delivery.
///
/// `max_in_flight` bounds how far the workers may run ahead of the
/// consumer: index `i` is not *started* until `i < consumed +
/// max_in_flight`. It is the backpressure for slow consumers — a
/// stalled sink (e.g. a client that stops reading its socket) stalls
/// the workers instead of letting completed results pile up in the
/// pending buffer. `max_in_flight ≥ n` means no bound; the value is
/// clamped to ≥ 1, and values below `threads` simply idle the surplus
/// workers.
///
/// An `Err` from `consume` stops the workers early and is returned;
/// results already computed for later indices are discarded. Panics in
/// `f` propagate to the caller after all workers stop.
///
/// [`ResultSink`]: crate::sink::ResultSink
pub fn parallel_for_in_order<T, E, F, C>(
    n: usize,
    threads: usize,
    max_in_flight: usize,
    f: F,
    mut consume: C,
) -> Result<(), E>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let workers = threads.clamp(1, n.max(1));
    let bound = max_in_flight.max(1);
    if workers <= 1 || n <= 1 {
        for i in 0..n {
            consume(i, f(i))?;
        }
        return Ok(());
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let gate: Gate = (Mutex::new(0), Condvar::new());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    let mut outcome = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let stop = &stop;
            let gate = &gate;
            let f = &f;
            scope.spawn(move || {
                let _guard = GatePoison { stop, gate };
                loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    {
                        let mut consumed = gate.0.lock().unwrap_or_else(|e| e.into_inner());
                        while i >= *consumed + bound && !stop.load(Ordering::SeqCst) {
                            consumed = gate.1.wait(consumed).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // A closed receiver means the consumer bailed out;
                    // stop producing.
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut pending: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut cursor = 0;
        'deliver: while cursor < n {
            // A receive error means every sender is gone — either a
            // worker panicked (the scope join below re-raises it) or all
            // work is done and delivered.
            let Ok((i, value)) = rx.recv() else {
                break;
            };
            pending[i] = Some(value);
            while cursor < n {
                let Some(value) = pending[cursor].take() else {
                    break;
                };
                if let Err(e) = consume(cursor, value) {
                    outcome = Err(e);
                    break 'deliver;
                }
                cursor += 1;
                let mut consumed = gate.0.lock().unwrap_or_else(|e| e.into_inner());
                *consumed = cursor;
                gate.1.notify_all();
            }
        }
        // Normal completion or consumer error alike: release any worker
        // still parked on the gate so the scope can join.
        stop.store(true, Ordering::SeqCst);
        {
            let _held = gate.0.lock().unwrap_or_else(|e| e.into_inner());
            gate.1.notify_all();
        }
        drop(rx);
    });
    outcome
}

/// The default worker count: available parallelism, or 1 when unknown.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Where one task of a [`OnceTasks`] queue stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// Not started, or its last run panicked.
    Free,
    /// Running on some thread.
    Running,
    /// Finished; final.
    Done,
}

/// A fixed set of tasks that each run to completion at most once, on
/// whichever caller first needs them. The queue owns no threads.
///
/// Tasks are numbered in first-need order, and every dependency of a
/// task has a lower number. [`ensure`](OnceTasks::ensure) returns once
/// a task and its dependencies are done. It runs each of them that no
/// thread has claimed on the calling thread. While one it needs runs on
/// another thread, the caller helps: it claims the lowest-numbered free
/// task whose dependencies are done, and it waits only when there is
/// none. A claimed task's dependencies are already done, so a running
/// task never waits on the queue, and no cycle of waiters can form.
///
/// A task that panics goes back to free and wakes every waiter. The
/// panic continues on the thread that ran it, and the next caller that
/// needs the task runs it again. The queue stores no results: a task
/// stores its own, for instance in a `OnceLock`, and a reader that
/// finds it there need not touch the queue.
#[derive(Debug)]
pub(crate) struct OnceTasks {
    deps: Vec<Vec<usize>>,
    claims: Mutex<Vec<Claim>>,
    changed: Condvar,
}

impl OnceTasks {
    /// A queue of `deps.len()` tasks, where task `t` may start only
    /// after every task in `deps[t]` is done.
    ///
    /// # Panics
    ///
    /// When a dependency does not come before its task.
    pub(crate) fn new(deps: Vec<Vec<usize>>) -> Self {
        for (task, before) in deps.iter().enumerate() {
            assert!(
                before.iter().all(|&d| d < task),
                "task {task} depends on a later task: {before:?}"
            );
        }
        let claims = Mutex::new(vec![Claim::Free; deps.len()]);
        OnceTasks {
            deps,
            claims,
            changed: Condvar::new(),
        }
    }

    /// `true` once `task` has run to completion.
    #[cfg(test)]
    pub(crate) fn is_done(&self, task: usize) -> bool {
        self.lock()[task] == Claim::Done
    }

    /// Returns once `task` and its dependencies are done. `run(t)` runs
    /// task `t`; the caller may run any free task through it while it
    /// helps, so `run` must handle every task of the queue.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of any task run on this thread.
    pub(crate) fn ensure(&self, task: usize, run: &(dyn Fn(usize) + Sync)) {
        for &dep in &self.deps[task] {
            self.ensure(dep, run);
        }
        let mut claims = self.lock();
        loop {
            let next = match claims[task] {
                Claim::Done => return,
                Claim::Free => task,
                Claim::Running => match self.first_ready(&claims) {
                    Some(other) => other,
                    None => {
                        claims = self.changed.wait(claims).unwrap_or_else(|e| e.into_inner());
                        continue;
                    }
                },
            };
            claims[next] = Claim::Running;
            drop(claims);
            self.run_claimed(next, run);
            if next == task {
                return;
            }
            claims = self.lock();
        }
    }

    /// The lowest-numbered free task whose dependencies are all done.
    fn first_ready(&self, claims: &[Claim]) -> Option<usize> {
        (0..claims.len()).find(|&t| {
            claims[t] == Claim::Free && self.deps[t].iter().all(|&d| claims[d] == Claim::Done)
        })
    }

    /// Runs a task this thread has claimed. It is done on return, or
    /// free again when `run` panics; either way every waiter wakes.
    fn run_claimed(&self, task: usize, run: &(dyn Fn(usize) + Sync)) {
        struct Release<'a> {
            tasks: &'a OnceTasks,
            task: usize,
        }
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                let mut claims = self.tasks.lock();
                claims[self.task] = if std::thread::panicking() {
                    Claim::Free
                } else {
                    Claim::Done
                };
                self.tasks.changed.notify_all();
            }
        }
        let _release = Release { tasks: self, task };
        run(task);
    }

    /// Every update under the lock is one assignment and no task runs
    /// under it, so the claims stay valid even if the mutex is poisoned.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Claim>> {
        self.claims.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(0..n)` across `threads` workers and collects the results
    /// in index order.
    fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        let Ok(()) = parallel_for_in_order(n, threads, n, f, |_, value| {
            out.push(value);
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }

    /// `(threads, max_in_flight)` pairs: serial, tightly bounded, and
    /// unbounded (a bound of `n` or more).
    const SHAPES: [(usize, usize); 7] = [
        (1, 1),
        (2, 1),
        (4, 2),
        (8, 3),
        (2, 100),
        (8, 1000),
        (64, 100),
    ];

    #[test]
    fn maps_all_indices_in_order() {
        for threads in [1, 2, 8, 64] {
            let out = parallel_map(100, threads, |i| i * i);
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(parallel_map(0, 8, |i| i).is_empty());
        assert_eq!(parallel_map(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn in_order_delivery_at_any_thread_count_and_bound() {
        for (threads, bound) in SHAPES {
            let mut seen = Vec::new();
            let ok: Result<(), ()> = parallel_for_in_order(
                100,
                threads,
                bound,
                |i| i * 3,
                |i, v| {
                    seen.push((i, v));
                    Ok(())
                },
            );
            assert!(ok.is_ok());
            let expect: Vec<(usize, usize)> = (0..100).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, expect, "threads={threads} bound={bound}");
        }
    }

    #[test]
    fn consumer_error_stops_early_at_any_bound() {
        for threads in [1, 4] {
            for bound in [2, 1000] {
                let mut delivered = 0usize;
                let out = parallel_for_in_order(
                    1000,
                    threads,
                    bound,
                    |i| i,
                    |i, _| {
                        if i == 5 {
                            Err("boom")
                        } else {
                            delivered += 1;
                            Ok(())
                        }
                    },
                );
                assert_eq!(out, Err("boom"), "threads={threads} bound={bound}");
                assert_eq!(delivered, 5, "threads={threads} bound={bound}");
            }
        }
    }

    #[test]
    fn in_order_empty_and_tiny_at_any_bound() {
        for bound in [1, 8] {
            let mut count = 0;
            let ok: Result<(), ()> = parallel_for_in_order(
                0,
                8,
                bound,
                |i| i,
                |_, _| {
                    count += 1;
                    Ok(())
                },
            );
            assert!(ok.is_ok());
            assert_eq!(count, 0, "bound={bound}");
            let mut got = None;
            let ok: Result<(), ()> = parallel_for_in_order(
                1,
                8,
                bound,
                |i| i + 9,
                |i, v| {
                    got = Some((i, v));
                    Ok(())
                },
            );
            assert!(ok.is_ok());
            assert_eq!(got, Some((0, 9)), "bound={bound}");
        }
    }

    #[test]
    fn bounded_pool_never_runs_ahead_of_the_bound() {
        use std::sync::atomic::AtomicUsize;
        // `started - consumed` must never exceed the bound: a worker may
        // only begin index i once i < consumed + bound.
        const BOUND: usize = 3;
        let started = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        let ok: Result<(), ()> = parallel_for_in_order(
            200,
            8,
            BOUND,
            |_| {
                let s = started.fetch_add(1, Ordering::SeqCst) + 1;
                let c = consumed.load(Ordering::SeqCst);
                if s > c + BOUND {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            },
            |_, _| {
                // A deliberately slow consumer, so unbounded workers
                // *would* run far ahead.
                std::thread::sleep(std::time::Duration::from_micros(500));
                consumed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        assert!(ok.is_ok());
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    /// Runs `body` on its own thread and fails if it has not finished
    /// within a minute, so a stranded waiter fails the test instead of
    /// hanging it.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("still waiting after 60 s: a waiter was stranded")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("the test body failed"),
        }
    }

    #[test]
    fn each_task_runs_once_after_its_dependencies_at_eight_threads() {
        // Every third task depends on the one before it; 200 runs of an
        // in-order pool at 8 workers each need one task.
        const TASKS: usize = 24;
        let tasks = OnceTasks::new(
            (0..TASKS)
                .map(|t| if t % 3 == 2 { vec![t - 1] } else { vec![] })
                .collect(),
        );
        let runs: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let early = AtomicUsize::new(0);
        let run = |t: usize| {
            if t % 3 == 2 && !tasks.is_done(t - 1) {
                early.fetch_add(1, Ordering::SeqCst);
            }
            runs[t].fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(300));
        };
        let needed = parallel_map(200, 8, |i| {
            let t = (i * 7) % TASKS;
            tasks.ensure(t, &run);
            assert!(tasks.is_done(t));
            t
        });
        assert_eq!(needed.len(), 200);
        let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1; TASKS], "runs per task");
        assert_eq!(
            early.load(Ordering::SeqCst),
            0,
            "a task ran before its dependency"
        );
    }

    #[test]
    fn a_waiter_helps_with_the_first_ready_task() {
        // Task 0 blocks until the main thread has seen the helper run
        // tasks 2 and 1 (task 1 waits on 0, so it is not ready until 0
        // is done); a second thread that needs task 0 must help with
        // task 2, the lowest ready one, rather than wait.
        within_a_minute(|| {
            let tasks = OnceTasks::new(vec![vec![], vec![0], vec![]]);
            let order = Mutex::new(Vec::new());
            let release = AtomicBool::new(false);
            let run = |t: usize| {
                order.lock().unwrap().push(t);
                if t == 0 {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            };
            std::thread::scope(|s| {
                s.spawn(|| tasks.ensure(0, &run));
                while order.lock().unwrap().is_empty() {
                    std::thread::yield_now();
                }
                let helper = s.spawn(|| tasks.ensure(0, &run));
                while order.lock().unwrap().len() < 2 {
                    std::thread::yield_now();
                }
                release.store(true, Ordering::SeqCst);
                helper.join().unwrap();
            });
            assert_eq!(*order.lock().unwrap(), vec![0, 2]);
            assert!(!tasks.is_done(1), "nothing needed task 1");
        });
    }

    #[test]
    fn a_panicking_task_strands_no_waiter_and_stays_retryable() {
        within_a_minute(|| {
            let tasks = OnceTasks::new(vec![vec![], vec![0]]);
            let attempts = AtomicUsize::new(0);
            let failing = |t: usize| {
                if t == 0 {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    panic!("task 0 failed");
                }
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_map(16, 8, |i| tasks.ensure(i % 2, &failing))
            }));
            assert!(outcome.is_err(), "the panic reaches the pool's caller");
            assert!(attempts.load(Ordering::SeqCst) >= 1);
            assert!(!tasks.is_done(0) && !tasks.is_done(1));
            // Nothing is poisoned: the next caller runs both tasks.
            let ran = Mutex::new(Vec::new());
            tasks.ensure(1, &|t| ran.lock().unwrap().push(t));
            assert_eq!(*ran.lock().unwrap(), vec![0, 1]);
            assert!(tasks.is_done(0) && tasks.is_done(1));
        });
    }

    #[test]
    #[should_panic(expected = "depends on a later task")]
    fn dependencies_must_come_first() {
        let _ = OnceTasks::new(vec![vec![1], vec![]]);
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let _ = parallel_map(16, 4, |i| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(10));
            LIVE.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(PEAK.load(Ordering::SeqCst) > 1, "no overlap observed");
    }
}
