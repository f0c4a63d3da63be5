//! The open online-DVS policy API.
//!
//! The simulator is policy-agnostic: anything implementing [`Policy`]
//! can drive the voltage selection at every dispatch, with no changes to
//! the engine. The four built-ins ([`NoDvs`], [`StaticSpeed`],
//! [`GreedyReclaim`], [`CcRm`]) are ordinary implementations of the same
//! trait — a user-defined policy is a first-class citizen:
//!
//! ```
//! use acs_model::units::Freq;
//! use acs_sim::{DispatchContext, Policy};
//!
//! /// Greedy reclamation, but never below half of f_max — a latency
//! /// hedge against mispredicted workloads.
//! struct CautiousGreedy;
//!
//! impl Policy for CautiousGreedy {
//!     fn name(&self) -> &str {
//!         "cautious-greedy"
//!     }
//!     fn needs_schedule(&self) -> bool {
//!         true
//!     }
//!     fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
//!         let fmax = ctx.cpu.f_max();
//!         let window = ctx.chunk_end - ctx.now;
//!         if window.as_ms() <= 0.0 {
//!             return fmax;
//!         }
//!         let greedy = ctx.chunk_budget_remaining / window;
//!         Freq::from_cycles_per_ms(
//!             greedy.as_cycles_per_ms().max(0.5 * fmax.as_cycles_per_ms()),
//!         )
//!     }
//! }
//! ```
//!
//! The engine clamps whatever [`Policy::on_dispatch`] returns into the
//! processor's `[f_min, f_max]` range (counting over-requests as
//! saturated dispatches), so no policy — built-in or user-provided — can
//! request an unrealizable frequency.

use acs_core::reopt::InstanceProgress;
use acs_core::StaticSchedule;
use acs_model::units::{Cycles, Freq, Time};
use acs_model::{TaskId, TaskSet};
use acs_power::Processor;
use acs_preempt::SubInstanceId;

/// Everything a policy may consult when dispatching a job's chunk.
#[derive(Debug, Clone, Copy)]
pub struct DispatchContext<'a> {
    /// The task set being simulated.
    pub set: &'a TaskSet,
    /// The processor executing it.
    pub cpu: &'a Processor,
    /// The task whose job is being dispatched.
    pub task: TaskId,
    /// Current simulation time (within the hyper-period).
    pub now: Time,
    /// Milestone end time of the current chunk.
    pub chunk_end: Time,
    /// Remaining worst-case budget of the current chunk.
    pub chunk_budget_remaining: Cycles,
    /// Precomputed static speed of the chunk (for [`StaticSpeed`]).
    pub static_speed: Freq,
    /// The static schedule's sub-instance being dispatched (`None` for
    /// schedule-free runs). Lets schedule-aware policies (e.g. [`ReOpt`])
    /// map the chunk to their own per-sub-instance state.
    ///
    /// [`ReOpt`]: crate::ReOpt
    pub sub: Option<SubInstanceId>,
}

/// Why the engine is calling [`Policy::on_boundary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryEvent {
    /// A hyper-period is starting (time 0, nothing executed yet).
    Start,
    /// An instance of the task was just released.
    Release(TaskId),
    /// An instance of the task just completed.
    Completion(TaskId),
}

/// Full boundary state handed to policies that opted into
/// [`Policy::wants_boundaries`]: the schedule under execution plus an
/// [`InstanceProgress`] snapshot of every job in the hyper-period —
/// everything needed to build a remaining-instance formulation and
/// re-solve it (see [`acs_core::reopt`]).
#[derive(Debug, Clone, Copy)]
pub struct SolverContext<'a> {
    /// The task set being simulated.
    pub set: &'a TaskSet,
    /// The processor executing it.
    pub cpu: &'a Processor,
    /// The static schedule the run is driven by, when attached.
    pub schedule: Option<&'a StaticSchedule>,
    /// Current simulation time (within the hyper-period).
    pub now: Time,
    /// What triggered this boundary.
    pub event: BoundaryEvent,
    /// Execution state of every job of the hyper-period, in engine order.
    pub progress: &'a [InstanceProgress],
}

/// Online-solver telemetry a boundary-re-optimizing policy exposes via
/// [`Policy::solver_stats`]; the engine folds the per-run delta into
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Boundary states for which a solution was needed (cache lookups).
    pub lookups: usize,
    /// Lookups answered by the solver cache.
    pub cache_hits: usize,
    /// Boundary re-solves actually executed.
    pub resolves: usize,
    /// Candidates that passed the feasibility/energy gate and were
    /// adopted.
    pub adopted: usize,
    /// Lookups answered by a carried warm solve (previous boundary's
    /// multipliers + ends seeded one solve that passed the gate), which
    /// skips both the cache and the multi-start fan-out. Invariant:
    /// `lookups == warm_carry_hits + cache_hits + resolves`.
    pub warm_carry_hits: usize,
}

impl SolverStats {
    /// Component-wise difference (`self` minus `earlier`); used by the
    /// engine to attribute cumulative policy counters to one run.
    pub fn delta_since(self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            resolves: self.resolves.saturating_sub(earlier.resolves),
            adopted: self.adopted.saturating_sub(earlier.adopted),
            warm_carry_hits: self.warm_carry_hits.saturating_sub(earlier.warm_carry_hits),
        }
    }

    /// Cache hit rate, `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.lookups == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / self.lookups as f64)
        }
    }
}

/// An online DVS policy: called back by the engine at every scheduling
/// event, returns the speed to run at from [`Policy::on_dispatch`].
///
/// Policies may keep arbitrary internal state; [`Policy::on_start`] runs
/// at the beginning of every hyper-period and must (re)initialize that
/// state so multi-hyper-period runs stay independent and deterministic.
pub trait Policy: Send {
    /// Short display name used in reports and error messages.
    fn name(&self) -> &str;

    /// `true` when the policy dispatches from static-schedule milestones
    /// (the engine then requires [`Simulator::with_schedule`]).
    ///
    /// [`Simulator::with_schedule`]: crate::Simulator::with_schedule
    fn needs_schedule(&self) -> bool {
        false
    }

    /// Called once at the start of every hyper-period; reset internal
    /// state here.
    fn on_start(&mut self, _set: &TaskSet, _cpu: &Processor) {}

    /// A new instance of `task` was released.
    fn on_release(&mut self, _task: TaskId, _set: &TaskSet, _cpu: &Processor) {}

    /// An instance of `task` completed after executing `actual` cycles.
    fn on_completion(&mut self, _task: TaskId, _actual: Cycles, _set: &TaskSet, _cpu: &Processor) {}

    /// `true` when the policy wants [`Policy::on_boundary`] callbacks.
    /// Building the [`SolverContext`] snapshot costs `O(jobs)` per
    /// boundary, so the engine only does it on request.
    fn wants_boundaries(&self) -> bool {
        false
    }

    /// Called at every job boundary (hyper-period start, release,
    /// completion) — *after* the corresponding `on_start`/`on_release`/
    /// `on_completion` hook — with the full [`SolverContext`]. This is
    /// the hook re-optimizing policies ([`ReOpt`]) solve from; the
    /// default does nothing.
    ///
    /// [`ReOpt`]: crate::ReOpt
    fn on_boundary(&mut self, _ctx: &SolverContext<'_>) {}

    /// Cumulative online-solver telemetry, for policies that run one
    /// (`None` otherwise). The engine reports the per-run delta in
    /// [`SimReport`](crate::SimReport).
    fn solver_stats(&self) -> Option<SolverStats> {
        None
    }

    /// The speed to run the dispatched chunk at. The engine clamps the
    /// result into the processor's `[f_min, f_max]`.
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq;
}

/// Conversion into a boxed [`Policy`], so [`Simulator::new`] accepts
/// policy values and boxed policies uniformly.
///
/// [`Simulator::new`]: crate::Simulator::new
pub trait IntoPolicy {
    /// Boxes `self` as a dynamic policy.
    fn into_policy(self) -> Box<dyn Policy>;
}

impl<P: Policy + 'static> IntoPolicy for P {
    fn into_policy(self) -> Box<dyn Policy> {
        Box::new(self)
    }
}

impl IntoPolicy for Box<dyn Policy> {
    fn into_policy(self) -> Box<dyn Policy> {
        self
    }
}

// ---------------------------------------------------------------------
// Built-in policies
// ---------------------------------------------------------------------

/// Always run at maximum speed; idle when nothing is ready. The no-DVS
/// reference point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDvs;

impl Policy for NoDvs {
    fn name(&self) -> &str {
        "no-dvs"
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        ctx.cpu.f_max()
    }
}

/// Use the static schedule's per-chunk speed `R̂_u/(e_u − ŝ_u)`
/// (worst-case start `ŝ_u`), with **no** slack reclamation. Isolates the
/// value of the static schedule alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticSpeed;

impl Policy for StaticSpeed {
    fn name(&self) -> &str {
        "static"
    }
    fn needs_schedule(&self) -> bool {
        true
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        ctx.static_speed
    }
}

/// The paper's runtime: at dispatch, stretch the chunk's remaining
/// worst-case budget over the time left until its milestone,
/// `speed = R̂_rem/(e_u − now)` — early completions automatically lower
/// later voltages (greedy slack reclamation).
///
/// On a leakage-modeled processor (`static_power > 0`) the executed
/// speed never drops below the task's
/// [critical speed](acs_power::Processor::critical_speed): stretching
/// below it would *raise* total energy. The engine floors every
/// dispatch at a precomputed per-task critical speed, so the request
/// itself stays the paper's pure stretch formula.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyReclaim;

impl Policy for GreedyReclaim {
    fn name(&self) -> &str {
        "greedy"
    }
    fn needs_schedule(&self) -> bool {
        true
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        let window = ctx.chunk_end - ctx.now;
        if window.as_ms() <= 0.0 {
            ctx.cpu.f_max()
        } else {
            ctx.chunk_budget_remaining / window
        }
    }
}

/// Cycle-conserving RM (Pillai & Shin, SOSP 2001 style): a purely
/// online baseline that rescales speed to the dynamic utilization
/// `Σ U_i`, using WCEC for active instances and the actual cycles for
/// completed ones. Ignores the static schedule.
#[derive(Debug, Clone, Default)]
pub struct CcRm {
    /// Per-task utilization contribution.
    util: Vec<f64>,
}

impl CcRm {
    /// Creates the policy; utilizations initialize at
    /// [`Policy::on_start`].
    pub fn new() -> Self {
        CcRm::default()
    }

    fn worst_util(task: TaskId, set: &TaskSet, cpu: &Processor) -> f64 {
        let t = &set.tasks()[task.0];
        t.wcec() / (t.period().as_span() * cpu.f_max())
    }

    /// The engine calls [`Policy::on_start`] before any other hook; for
    /// direct use outside it, lazily fall back to the same
    /// initialization instead of indexing an empty table (the old
    /// `CcRmState::new(set, cpu)` made that state unrepresentable).
    fn ensure_started(&mut self, set: &TaskSet, cpu: &Processor) {
        if self.util.len() != set.len() {
            self.on_start(set, cpu);
        }
    }
}

impl Policy for CcRm {
    fn name(&self) -> &str {
        "ccrm"
    }
    fn on_start(&mut self, set: &TaskSet, cpu: &Processor) {
        self.util = set
            .iter()
            .map(|(tid, _)| CcRm::worst_util(tid, set, cpu))
            .collect();
    }
    fn on_release(&mut self, task: TaskId, set: &TaskSet, cpu: &Processor) {
        self.ensure_started(set, cpu);
        self.util[task.0] = CcRm::worst_util(task, set, cpu);
    }
    fn on_completion(&mut self, task: TaskId, actual: Cycles, set: &TaskSet, cpu: &Processor) {
        self.ensure_started(set, cpu);
        let t = &set.tasks()[task.0];
        self.util[task.0] = actual / (t.period().as_span() * cpu.f_max());
    }
    fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
        if self.util.is_empty() {
            // Hooks never ran (direct use outside the engine, which
            // always calls `on_start` first): be conservative.
            return ctx.cpu.f_max();
        }
        let u: f64 = self.util.iter().sum();
        ctx.cpu.f_max() * u.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_model::units::{Ticks, Volt};
    use acs_model::Task;
    use acs_power::FreqModel;

    fn fixture() -> (TaskSet, Processor) {
        let set = TaskSet::new(vec![
            Task::builder("a", Ticks::new(10))
                .wcec(Cycles::from_cycles(200.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(20))
                .wcec(Cycles::from_cycles(400.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(2.0)) // fmax = 100 cyc/ms
            .build()
            .unwrap();
        (set, cpu)
    }

    fn ctx<'a>(
        set: &'a TaskSet,
        cpu: &'a Processor,
        now: f64,
        end: f64,
        budget: f64,
        static_speed: f64,
    ) -> DispatchContext<'a> {
        DispatchContext {
            set,
            cpu,
            task: TaskId(0),
            now: Time::from_ms(now),
            chunk_end: Time::from_ms(end),
            chunk_budget_remaining: Cycles::from_cycles(budget),
            static_speed: Freq::from_cycles_per_ms(static_speed),
            sub: None,
        }
    }

    #[test]
    fn needs_schedule_flags() {
        assert!(!NoDvs.needs_schedule());
        assert!(StaticSpeed.needs_schedule());
        assert!(GreedyReclaim.needs_schedule());
        assert!(!CcRm::new().needs_schedule());
        assert_eq!(GreedyReclaim.name(), "greedy");
    }

    #[test]
    fn ccrm_tracks_dynamic_utilization() {
        let (set, cpu) = fixture();
        let mut p = CcRm::new();
        p.on_start(&set, &cpu);
        let speed_of = |p: &mut CcRm| {
            let c = ctx(&set, &cpu, 0.0, 1.0, 1.0, 0.0);
            p.on_dispatch(&c).as_cycles_per_ms()
        };
        // Worst case: 200/(10·100) + 400/(20·100) = 0.2 + 0.2 = 0.4.
        assert!((speed_of(&mut p) - 40.0).abs() < 1e-9);
        // Task a completes with only 50 cycles: U_a = 0.05.
        p.on_completion(TaskId(0), Cycles::from_cycles(50.0), &set, &cpu);
        assert!((speed_of(&mut p) - 25.0).abs() < 1e-9);
        // Next release of a restores the worst case.
        p.on_release(TaskId(0), &set, &cpu);
        assert!((speed_of(&mut p) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn ccrm_tolerates_hooks_before_on_start() {
        let (set, cpu) = fixture();
        let mut p = CcRm::new();
        // No on_start: dispatch is conservative, hooks self-initialize.
        let c = ctx(&set, &cpu, 0.0, 1.0, 1.0, 0.0);
        assert_eq!(p.on_dispatch(&c), cpu.f_max());
        p.on_completion(TaskId(0), Cycles::from_cycles(50.0), &set, &cpu);
        // 50/(10·100) + 400/(20·100) = 0.05 + 0.2.
        assert!((p.on_dispatch(&c).as_cycles_per_ms() - 25.0).abs() < 1e-9);
        let mut q = CcRm::new();
        q.on_release(TaskId(1), &set, &cpu);
        assert!((q.on_dispatch(&c).as_cycles_per_ms() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_speed_from_context() {
        let (set, cpu) = fixture();
        let c = ctx(&set, &cpu, 2.0, 6.0, 200.0, 77.0);
        let f = GreedyReclaim.on_dispatch(&c);
        assert!((f.as_cycles_per_ms() - 50.0).abs() < 1e-12);
        assert_eq!(StaticSpeed.on_dispatch(&c), Freq::from_cycles_per_ms(77.0));
        assert_eq!(NoDvs.on_dispatch(&c), cpu.f_max());
    }

    #[test]
    fn greedy_saturates_past_milestone() {
        let (set, cpu) = fixture();
        let c = ctx(&set, &cpu, 6.0, 6.0, 1.0, 0.0);
        assert_eq!(GreedyReclaim.on_dispatch(&c), cpu.f_max());
    }
}
