//! Workload sources: where per-job cycle demands come from.
//!
//! The engine draws each job's cycles in **task-major order** within
//! each hyper-period (task 0's instances, then task 1's, …). That
//! per-job draw is one of the engine's hot paths, so [`WorkloadSource`]
//! offers a *batched* draw besides the per-job one: the engine requests
//! one task's whole hyper-period window in a single call and the source
//! may sample its RNG in a tight loop.
//!
//! ## Purity contract
//!
//! `draw_batch(task, start, count, out)` **must** append exactly
//! `count` values and be bit-identical to `count` sequential
//! `draw(task, start + k)` calls — same values, same internal RNG
//! state afterwards. The engine only ever batches draws it would have
//! made consecutively anyway (it draws task-major), so any source whose
//! stream depends only on call order (a shared sequential RNG) or only
//! on `(task, instance)` (counter-keyed streams) satisfies the contract
//! with the obvious loop. The default implementation *is* that loop;
//! override it only to hoist per-call overhead out of the loop, never
//! to change the stream. `tests/engine_differential.rs` pins the
//! contract: batched and per-job draws must produce byte-identical
//! reports for randomized batch windows.
//!
//! Every `FnMut(TaskId, u64) -> Cycles` closure is a `WorkloadSource`
//! (per-draw only), so [`Simulator::run`] — the engine's one entry
//! point — takes closures and batch-capable sources alike. A closure
//! passed straight to `run` needs its argument types spelled out
//! (`|t: TaskId, i: u64| …`): nothing else tells the compiler which
//! trait the closure is meant to satisfy.
//!
//! [`Simulator::run`]: crate::Simulator::run

use acs_model::units::Cycles;
use acs_model::TaskId;

/// A supplier of per-job actual execution cycles.
///
/// Implemented by every `FnMut(TaskId, u64) -> Cycles` closure (blanket
/// impl, per-draw only) and by `acs-workloads`' `TaskWorkloads` (with a
/// genuinely batched override). See the module docs for the batch
/// purity contract.
pub trait WorkloadSource {
    /// Draws the actual cycle demand of one job: `task`'s instance
    /// `instance`, indexed absolutely across the whole run
    /// (hyper-period-major).
    fn draw(&mut self, task: TaskId, instance: u64) -> Cycles;

    /// Draws `count` consecutive instances of `task` starting at
    /// absolute instance `start`, appending exactly `count` values to
    /// `out`. Must be bit-identical to `count` sequential
    /// [`WorkloadSource::draw`] calls (see the module docs); the
    /// default implementation is exactly that loop.
    fn draw_batch(&mut self, task: TaskId, start: u64, count: u64, out: &mut Vec<Cycles>) {
        out.reserve(count as usize);
        for k in 0..count {
            out.push(self.draw(task, start + k));
        }
    }
}

impl<F: FnMut(TaskId, u64) -> Cycles + ?Sized> WorkloadSource for F {
    fn draw(&mut self, task: TaskId, instance: u64) -> Cycles {
        self(task, instance)
    }
}

impl WorkloadSource for acs_workloads::TaskWorkloads {
    fn draw(&mut self, task: TaskId, instance: u64) -> Cycles {
        acs_workloads::TaskWorkloads::draw(self, task, instance)
    }

    /// Batched sampling: one distribution lookup, then a tight loop
    /// over the shared RNG — the same RNG calls in the same order as
    /// per-job draws, so the stream is unchanged.
    fn draw_batch(&mut self, task: TaskId, _start: u64, count: u64, out: &mut Vec<Cycles>) {
        acs_workloads::TaskWorkloads::draw_batch(self, task, count, out);
    }
}
