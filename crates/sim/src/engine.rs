//! The event-driven preemptive DVS simulator (fixed-priority RM or
//! EDF, per [`SchedulingClass`]).
//!
//! Jobs are released periodically, preemption is immediate when a more
//! eligible job appears — a higher-priority release under RM (paper
//! §2.1), an earlier-deadline release under EDF — and the processor
//! shuts down (zero energy) when idle. On `m` identical cores
//! ([`Simulator::with_cores`]) the same dispatcher places jobs
//! globally: every round runs the `m` most eligible jobs, one per core
//! (see `docs/ENGINE.md`). The engine is a discrete-event
//! simulation: releases and chunk-window wakeups live in a
//! deterministic binary-heap [`EventQueue`] keyed
//! `(time, kind-priority, seq)`, dispatch selection pops a
//! [`ReadyQueue`], and completions / budget
//! exhaustions / preemptions are *derived* events computed at dispatch
//! — so simulation cost is `O(events · log jobs)`, independent of
//! cycle counts, and every output bit matches the legacy chunk-scan
//! engine (kept behind the `legacy-engine` feature as a test oracle;
//! see `docs/ENGINE.md` for the determinism contract).
//!
//! The engine is policy-agnostic: it drives any [`Policy`] through the
//! trait's callbacks (`on_start`/`on_release`/`on_completion`/
//! `on_dispatch`) and clamps every requested speed into the processor's
//! `[f_min, f_max]` at the dispatch boundary, so no policy can request an
//! unrealizable frequency.

use crate::error::SimError;
use crate::event::{Event, EventKind, EventQueue, ReadyKey, ReadyQueue};
use crate::exec_trace::{ExecutionTrace, Slice};
use crate::policy::{
    BoundaryEvent, DispatchContext, IntoPolicy, Policy, SolverContext, SolverStats,
};
use crate::report::SimReport;
use crate::workload::WorkloadSource;
use acs_core::reopt::InstanceProgress;
use acs_core::StaticSchedule;
use acs_model::units::{Cycles, Energy, Freq, Time, TimeSpan, Volt};
use acs_model::{SchedulingClass, TaskId, TaskSet};
use acs_power::Processor;
use acs_preempt::SubInstanceId;
use acs_trace::{ArrivalJob, ArrivalSource};

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Number of hyper-periods to simulate (the paper uses 1000).
    pub hyper_periods: u64,
    /// Lateness tolerance before a completion counts as a deadline miss
    /// (absorbs floating-point noise).
    pub deadline_tol_ms: f64,
    /// Record an [`ExecutionTrace`] of the *first* hyper-period.
    pub record_trace: bool,
    /// Scheduling class the dispatcher orders ready jobs by; `None`
    /// (the default) inherits the task set's own
    /// [`TaskSet::class`]. The campaign grid sets this explicitly per
    /// cell.
    pub class: Option<SchedulingClass>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            hyper_periods: 1,
            deadline_tol_ms: 1e-6,
            record_trace: false,
            class: None,
        }
    }
}

/// Result of [`Simulator::run`] and of [`MachineRun::run`](crate::MachineRun::run).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Aggregate counters and energy. A multi-core run folds its cores'
    /// reports into this one (sums and maxima, `hyper_periods` counted
    /// once).
    pub report: SimReport,
    /// Trace of the first hyper-period when requested (a multi-core run
    /// records one per core, in [`RunOutput::cores`]).
    pub trace: Option<ExecutionTrace>,
    /// Each core's own report and first-hyper-period trace, in core
    /// order, on a multi-core run; empty on one core, where `report`
    /// and `trace` already are the core's.
    pub cores: Vec<CoreOutput>,
}

/// One core's results in a multi-core run. Under global dispatch each
/// counter lands on the core where its event happened: a migration on
/// the core the job arrived on, a preemption on the core that displaced
/// the job. Machine-level counters (clamped draws, jobs completed at
/// release, event statistics, solver counters) land on core 0.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOutput {
    /// The core's counters and energy.
    pub report: SimReport,
    /// The core's trace of the first hyper-period when requested.
    pub trace: Option<ExecutionTrace>,
}

/// Tolerance for time comparisons (release admission, chunk-window
/// opening, voltage equality), in ms.
pub(crate) const EPS: f64 = 1e-9;

/// Completion threshold in cycles. Schedules are accepted with up
/// to ~1e-6 ms of worst-case trace lateness, which at f_max
/// corresponds to fractions of a cycle of residual work; without a
/// forgiving threshold that dust survives all chunk budgets, loses
/// priority to newly released jobs (RM is not deadline-aware) and
/// "completes" milliseconds late. 1e-2 cycles is tens of
/// nanoseconds of work on any realistic clock — far below anything
/// observable — and comfortably above every gate-permitted
/// residual (including the looser quick-profile solves).
pub(crate) const CYCLE_EPS: f64 = 1e-2;

/// Static per-chunk dispatch data derived from the schedule (or synthetic
/// single-chunk plans for schedule-free policies).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkPlan {
    /// Window start of the chunk's segment. A job that exhausts its
    /// current chunk's budget early is *throttled* until the next
    /// chunk's window opens — the budget-enforced semantics the paper's
    /// fill rule assumes ("the next sub-instance will start execution
    /// only if the previous sub-instance already reaches the worst-case
    /// limit", §3.2). Without this, a mid-priority job would barge into
    /// its next chunk and crowd out lower-priority chunks whose
    /// milestones precede it in the total order, breaking worst-case
    /// guarantees.
    pub(crate) start_ms: f64,
    pub(crate) end_ms: f64,
    pub(crate) budget: f64,
    pub(crate) static_speed: f64,
    /// The schedule's sub-instance this chunk executes (`None` for the
    /// synthetic single-chunk plans of schedule-free runs).
    pub(crate) sub: Option<SubInstanceId>,
}

/// A job (task instance) inside one hyper-period.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub(crate) task: usize,
    pub(crate) instance_in_hyper: u64,
    pub(crate) release_ms: f64,
    pub(crate) deadline_ms: f64,
    pub(crate) remaining: f64,
    pub(crate) executed: f64,
    pub(crate) chunk: usize,
    pub(crate) chunk_budget_left: f64,
    pub(crate) done: bool,
    /// Synthetic single-chunk plan of an *aperiodic* job (released by an
    /// arrival source): budget WCEC, window release→deadline, static
    /// speed sized to just meet the deadline. `None` for the built-in
    /// periodic releases, which use the per-instance plans.
    pub(crate) own_plan: Option<ChunkPlan>,
    /// Virtual time this job's chunk state was last maintained at —
    /// the event engine maintains chunks lazily, and boundary
    /// snapshots use this to forward exactly to the legacy engine's
    /// per-round maintenance basis and no further (the legacy oracle
    /// initializes it and never reads it).
    pub(crate) maintained_at: f64,
    /// Core this job last ran on (`None` before its first dispatch,
    /// which is never a migration).
    pub(crate) last_core: Option<usize>,
}

/// The simulator: borrows the system description, owns the online
/// policy, and runs workloads through them.
///
/// Any [`Policy`] value (built-in or user-defined) or a
/// `Box<dyn Policy>` is accepted.
///
/// ```
/// use acs_model::{Task, TaskSet, TaskId, units::{Cycles, Ticks, Volt}};
/// use acs_power::{FreqModel, Processor};
/// use acs_sim::{NoDvs, SimOptions, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TaskSet::new(vec![
///     Task::builder("t", Ticks::new(10)).wcec(Cycles::from_cycles(100.0)).build()?,
/// ])?;
/// let cpu = Processor::builder(FreqModel::linear(50.0)?)
///     .vmax(Volt::from_volts(4.0)).build()?;
/// let out = Simulator::new(&set, &cpu, NoDvs)
///     .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(100.0))?;
/// assert_eq!(out.report.jobs_completed, 1);
/// assert!(out.report.all_deadlines_met());
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'a> {
    pub(crate) set: &'a TaskSet,
    pub(crate) cpu: &'a Processor,
    pub(crate) policy: Box<dyn Policy>,
    pub(crate) schedule: Option<&'a StaticSchedule>,
    pub(crate) options: SimOptions,
    /// When set, job releases come from this source instead of the
    /// built-in periodic pattern (see [`Simulator::with_arrivals`]).
    pub(crate) arrivals: Option<Box<dyn ArrivalSource>>,
    /// Number of identical cores (see [`Simulator::with_cores`]).
    pub(crate) cores: usize,
}

impl std::fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("policy", &self.policy.name())
            .field("schedule", &self.schedule.map(|s| s.kind()))
            .field("options", &self.options)
            .field("cores", &self.cores)
            .finish_non_exhaustive()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with default options and no schedule.
    pub fn new(set: &'a TaskSet, cpu: &'a Processor, policy: impl IntoPolicy) -> Self {
        Simulator {
            set,
            cpu,
            policy: policy.into_policy(),
            schedule: None,
            options: SimOptions::default(),
            arrivals: None,
            cores: 1,
        }
    }

    /// Runs the set on `cores` identical processors (default 1) under
    /// global placement: one shared ready queue, and every round the
    /// `cores` most eligible jobs run, one per core. A job keeps the
    /// core it last ran on when that core is free; otherwise it takes
    /// the lowest free core, a migration counted on that core. Each
    /// core has its own voltage, transition overhead and preemption
    /// count, and [`RunOutput::cores`] reports each core separately.
    ///
    /// One policy instance serves every core, so utilization-driven
    /// policies see the whole set. A multi-core run is schedule-free: it
    /// rejects a static schedule (milestones encode a single-core
    /// worst-case interleaving), a policy that needs one, and an arrival
    /// source (it runs the built-in periodic releases).
    ///
    /// ```
    /// use acs_model::{Task, TaskId, TaskSet, units::{Cycles, Ticks, Volt}};
    /// use acs_power::{FreqModel, Processor};
    /// use acs_sim::{NoDvs, Simulator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let set = TaskSet::new(vec![
    ///     Task::builder("a", Ticks::new(10)).wcec(Cycles::from_cycles(800.0)).build()?,
    ///     Task::builder("b", Ticks::new(10)).wcec(Cycles::from_cycles(800.0)).build()?,
    /// ])?;
    /// let cpu = Processor::builder(FreqModel::linear(50.0)?)
    ///     .vmax(Volt::from_volts(4.0)).build()?;
    /// let out = Simulator::new(&set, &cpu, NoDvs)
    ///     .with_cores(2)
    ///     .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(800.0))?;
    /// assert_eq!(out.report.jobs_completed, 2);
    /// assert_eq!(out.cores.len(), 2);
    /// assert!(out.report.all_deadlines_met());
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Attaches an [`ArrivalSource`]: job releases (and, for trace
    /// sources, per-job cycle demands) come from the source instead of
    /// the built-in periodic pattern. One source window is consumed per
    /// hyper-period; `options.hyper_periods` still caps the run, and a
    /// finite source (trace replay) ends the run early once
    /// [`ArrivalSource::exhausted`].
    ///
    /// Every sourced job is aperiodic: it runs on a synthetic
    /// single-chunk plan — budget WCEC, window release→deadline — so it
    /// needs no static schedule. Schedule-boundary callbacks fire only
    /// on the built-in periodic releases, never with a source attached
    /// (re-optimizing policies degrade gracefully to their chunk-end
    /// fallback on aperiodic cells). A window whose demand exceeds
    /// capacity overruns the hyper-period until its jobs drain, and
    /// every late job is counted in both `deadline_misses` and
    /// `misses_aperiodic` — overload is loud, never wedged.
    pub fn with_arrivals(mut self, arrivals: Box<dyn ArrivalSource>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Attaches the static schedule consumed by milestone-based policies.
    pub fn with_schedule(mut self, schedule: &'a StaticSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Overrides the simulation options.
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the scheduling class for this run (otherwise the task
    /// set's own [`TaskSet::class`] applies).
    pub fn with_class(mut self, class: SchedulingClass) -> Self {
        self.options.class = Some(class);
        self
    }

    /// Runs the simulation. `workload` supplies each job's actual
    /// execution cycles, keyed by task id and the *absolute* instance
    /// index across the whole run (hyper-period-major); draws are
    /// clamped into `[0, WCEC]` (clamps are counted in the report).
    /// Every `FnMut(TaskId, u64) -> Cycles` closure is a
    /// [`WorkloadSource`] (drawn one job at a time); a batch-capable
    /// source (e.g. `acs-workloads`' `TaskWorkloads`) is drawn one task
    /// per hyper-period window at a time, with byte-identical output.
    ///
    /// Takes `&mut self` because the policy may carry state; the policy's
    /// [`Policy::on_start`] runs at every hyper-period boundary, so
    /// consecutive `run` calls remain independent.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, workload: &mut dyn WorkloadSource) -> Result<RunOutput, SimError> {
        #[cfg(feature = "legacy-engine")]
        // The chunk-scan oracle predates arrival sources, precedence
        // graphs, multi-core runs and batched draws: it only covers the
        // built-in periodic, independent, single-core path, fed one
        // draw at a time (it stays allocation-unoptimized by design —
        // see docs/ENGINE.md).
        if crate::legacy::legacy_engine_enabled()
            && self.cores == 1
            && self.arrivals.is_none()
            && self.set.graph().is_none_or(|g| g.is_empty())
        {
            return self.run_legacy(&mut |t, i| workload.draw(t, i));
        }
        self.stepped(workload)?.finish()
    }

    /// Starts a resumable run: the same simulation `run` performs, but
    /// advanced one event round at a time via [`SteppedRun::step`].
    /// Driving a `SteppedRun` to completion produces exactly the
    /// [`RunOutput`] that `run` would have returned.
    ///
    /// # Errors
    ///
    /// See [`SimError`] (plan construction runs here; execution errors
    /// surface from `step`/`finish`).
    pub fn stepped<'s, 'w>(
        &'s mut self,
        workload: &'w mut dyn WorkloadSource,
    ) -> Result<SteppedRun<'s, 'a, 'w>, SimError> {
        if self.arrivals.is_some() && self.set.graph().is_some_and(|g| !g.is_empty()) {
            return Err(SimError::GraphWithArrivals);
        }
        let cores = self.cores;
        let reject = |reason: String| Err(SimError::Cores { cores, reason });
        if cores == 0 {
            return reject("a run needs at least one core".into());
        }
        if cores > 1 {
            if self.schedule.is_some() {
                return reject(
                    "a static schedule encodes a single-core worst-case interleaving".into(),
                );
            }
            if self.policy.needs_schedule() {
                return reject(format!(
                    "policy {} requires a static schedule; multi-core dispatch runs \
                     schedule-free policies only",
                    self.policy.name()
                ));
            }
            if self.arrivals.is_some() {
                return reject(
                    "multi-core dispatch runs the built-in periodic releases, not an \
                     arrival source"
                        .into(),
                );
            }
        }
        let plans = self.build_plans()?;
        let stats_before = self.policy.solver_stats();
        let instances_per_hyper = self.set.total_instances();
        let tasks = self.set.len();
        Ok(SteppedRun {
            cores: (0..cores)
                .map(|_| CoreOutput {
                    report: SimReport::empty(tasks),
                    trace: None,
                })
                .collect(),
            sim: self,
            workload,
            plans,
            instances_per_hyper,
            abs_base: 0,
            h: 0,
            stats_before,
            current: None,
            spare: None,
            done: false,
        })
    }

    /// Builds per-task, per-instance chunk plans.
    pub(crate) fn build_plans(&self) -> Result<Vec<Vec<Vec<ChunkPlan>>>, SimError> {
        let fmax = self.cpu.f_max().as_cycles_per_ms();
        // Leakage-aware floor per task: with static power modeled,
        // running a chunk below its critical speed wastes energy, so the
        // static plan speeds never drop below it (zero-leakage
        // processors floor at 0 — no change).
        let floor_of = |c_eff: f64| self.cpu.critical_speed(c_eff).as_cycles_per_ms();
        match self.schedule {
            Some(schedule) => {
                let fps = schedule.fps();
                // Milestones encode a worst-case total order; dispatching
                // them under the other class voids the guarantee (the
                // stretch windows assume this class's interleaving), so
                // the mismatch is an error rather than silent lateness.
                let class = self.options.class.unwrap_or_else(|| self.set.class());
                if fps.class() != class {
                    return Err(SimError::ScheduleMismatch {
                        reason: format!(
                            "schedule synthesized for {} dispatch, run uses {}",
                            fps.class(),
                            class
                        ),
                    });
                }
                if fps.hyper_period() != self.set.hyper_period() {
                    return Err(SimError::ScheduleMismatch {
                        reason: format!(
                            "hyper-period {} vs task set {}",
                            fps.hyper_period(),
                            self.set.hyper_period()
                        ),
                    });
                }
                if fps.task_count() != self.set.len() {
                    return Err(SimError::ScheduleMismatch {
                        reason: format!(
                            "{} tasks in schedule vs {} in set",
                            fps.task_count(),
                            self.set.len()
                        ),
                    });
                }
                // Worst-case start of every sub-instance = max(window
                // start, previous end in total order).
                let mut prev_end = 0.0f64;
                let mut wc_start = vec![0.0f64; fps.len()];
                for (u, sub) in fps.sub_instances().iter().enumerate() {
                    let m = schedule.milestone(sub.id);
                    wc_start[u] = prev_end.max(sub.window_start.as_ms());
                    if m.worst_workload.as_cycles() > 1e-12 {
                        prev_end = m.end_time.as_ms();
                    } else {
                        prev_end = wc_start[u];
                    }
                }
                let mut plans = Vec::with_capacity(self.set.len());
                for (tid, task) in self.set.iter() {
                    let floor = floor_of(task.c_eff());
                    let mut per_task = Vec::new();
                    for inst in 0..fps.instances_of(tid) {
                        let chunks: Vec<ChunkPlan> = fps
                            .chunks_of(acs_preempt::InstanceId {
                                task: tid,
                                index: inst,
                            })
                            .map(|id| {
                                let m = schedule.milestone(id);
                                let end = m.end_time.as_ms();
                                let budget = m.worst_workload.as_cycles();
                                let window = (end - wc_start[id.0]).max(1e-12);
                                ChunkPlan {
                                    start_ms: fps.sub(id).window_start.as_ms(),
                                    end_ms: end,
                                    budget,
                                    static_speed: (budget / window).min(fmax).max(floor),
                                    sub: Some(id),
                                }
                            })
                            .collect();
                        per_task.push(chunks);
                    }
                    plans.push(per_task);
                }
                Ok(plans)
            }
            None => {
                if self.policy.needs_schedule() {
                    return Err(SimError::ScheduleRequired {
                        policy: self.policy.name().to_string(),
                    });
                }
                // One chunk per instance: budget WCEC, milestone at the
                // absolute deadline.
                let mut plans = Vec::with_capacity(self.set.len());
                for (tid, task) in self.set.iter() {
                    let n = self.set.instances_of(tid);
                    let mut per_task = Vec::new();
                    for inst in 0..n {
                        let release = (inst * task.period().get()) as f64;
                        per_task.push(vec![ChunkPlan {
                            start_ms: release,
                            end_ms: release + task.deadline().get() as f64,
                            budget: task.wcec().as_cycles(),
                            static_speed: fmax,
                            sub: None,
                        }]);
                    }
                    plans.push(per_task);
                }
                Ok(plans)
            }
        }
    }
}

/// The engine's borrowed environment, bundled so the per-round methods
/// stay readable (the policy is passed alongside — it needs `&mut`).
struct Env<'e> {
    set: &'e TaskSet,
    cpu: &'e Processor,
    schedule: Option<&'e StaticSchedule>,
    options: &'e SimOptions,
    plans: &'e [Vec<Vec<ChunkPlan>>],
    cores: usize,
}

/// Advances a job's chunk state to virtual time `t`.
///
/// The advance rules are *path-independent and monotone in `t`*: both
/// branches only depend on the current chunk state and `t`, and a chunk
/// that is advanceable at `t1` stays advanceable at every `t2 > t1`
/// until taken. Running this once at `t` therefore lands in exactly the
/// state the legacy engine reaches by re-running it at every
/// intermediate event — which is what lets the event engine maintain
/// chunks lazily (at selection, wakeup and boundary-snapshot time)
/// instead of scanning every job per round.
fn maintain_job(j: &mut Job, plan: &[ChunkPlan], t: f64) {
    loop {
        // Budget exhausted: the job may only move on once the
        // next chunk's segment opens (budget-enforced
        // schedule; see `ChunkPlan::start_ms`).
        if j.chunk_budget_left <= EPS
            && j.chunk + 1 < plan.len()
            && t + EPS >= plan[j.chunk + 1].start_ms
        {
            j.chunk += 1;
            j.chunk_budget_left = plan[j.chunk].budget;
            continue;
        }
        // Roll missed-milestone budget forward — but never
        // before the next chunk's window opens: a re-optimizing
        // policy may legitimately run a chunk past its *static*
        // milestone (its window extends to the segment end), and
        // rolling early would let the job barge into the next
        // segment ahead of lower-priority chunks, breaking the
        // worst-case guarantees budget enforcement exists for. A
        // *spent* chunk past its milestone likewise waits for
        // its next window (first branch), not skips ahead.
        if j.chunk_budget_left > EPS
            && t >= plan[j.chunk].end_ms + EPS
            && j.chunk + 1 < plan.len()
            && t + EPS >= plan[j.chunk + 1].start_ms
        {
            let left = j.chunk_budget_left;
            j.chunk += 1;
            j.chunk_budget_left = plan[j.chunk].budget + left;
            continue;
        }
        break;
    }
    j.maintained_at = t;
}

/// The predecessor gate (present when the set carries a non-empty
/// [`acs_model::TaskGraph`]): per-job counts of unfinished same-instance
/// predecessor jobs, the dependents to notify on completion, and which
/// released jobs are currently held back. A gated job is *released* —
/// its `Release` event, `on_release` hook and boundary all fire on time
/// — but it stays out of the ready queue until every predecessor job of
/// its graph instance has completed.
struct Gate {
    /// Unfinished predecessor jobs per job index.
    pred_left: Vec<usize>,
    /// Dependent job indices per job index.
    succ_jobs: Vec<Vec<usize>>,
    /// Released jobs currently held back by the gate.
    waiting: Vec<bool>,
}

impl Gate {
    /// Builds the gate from the set's task graph (`n` = job count of
    /// one hyper-period; built-in periodic releases lay jobs out
    /// task-major, one per `(task, instance)`).
    fn build(set: &TaskSet, g: &acs_model::TaskGraph, n: usize) -> Self {
        let mut base = vec![0usize; set.len()];
        let mut acc = 0usize;
        for (tid, _) in set.iter() {
            base[tid.0] = acc;
            acc += set.instances_of(tid) as usize;
        }
        let mut pred_left = vec![0usize; n];
        let mut succ_jobs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in g.edges() {
            // Edge endpoints share a period (validated at graph
            // construction), hence the same instance count.
            for k in 0..set.instances_of(a) as usize {
                succ_jobs[base[a.0] + k].push(base[b.0] + k);
                pred_left[base[b.0] + k] += 1;
            }
        }
        Gate {
            pred_left,
            succ_jobs,
            waiting: vec![false; n],
        }
    }

    /// Re-arms the gate for a new hyper-period: the topology is fixed
    /// per run, so only the counts and the waiting flags reset — no
    /// allocation.
    fn reset(&mut self) {
        self.waiting.iter_mut().for_each(|w| *w = false);
        self.pred_left.iter_mut().for_each(|p| *p = 0);
        for succs in &self.succ_jobs {
            for &s in succs {
                self.pred_left[s] += 1;
            }
        }
    }
}

/// One core's dispatch state within a hyper-period, and the slice it
/// runs in the current round.
struct Core {
    /// The core's counters for this hyper-period.
    report: SimReport,
    trace: Option<ExecutionTrace>,
    last_voltage: Option<f64>,
    /// Job index of this core's most recent dispatch, for preemption
    /// counting: a dispatch of a *different* job while this one still
    /// has work is a displacement (both classes use the same rule, so
    /// RM/EDF preemption counts are directly comparable).
    last_dispatched: Option<usize>,
    /// The job placed on this core this round (`None`: it idles). The
    /// round's completion pass clears it again.
    job: Option<usize>,
    /// The placed job's slice: start (after any transition dead time),
    /// length, and the frequency and voltage it runs at.
    start: f64,
    dt: f64,
    freq: f64,
    volt: Volt,
}

impl Core {
    fn charge_idle(&mut self, cpu: &Processor, span_ms: f64) {
        self.report.idle_time += TimeSpan::from_ms(span_ms);
        let idle_power = cpu.idle_power();
        if idle_power > 0.0 {
            let e = Energy::from_units(idle_power * span_ms);
            self.report.idle_energy += e;
            self.report.energy += e;
        }
    }

    fn new(tasks: usize) -> Self {
        Core {
            report: SimReport::empty(tasks),
            trace: None,
            last_voltage: None,
            last_dispatched: None,
            job: None,
            start: 0.0,
            dt: 0.0,
            freq: 0.0,
            volt: Volt::from_volts(0.0),
        }
    }
}

/// The live state of one hyper-period under the event engine: the jobs,
/// the event queue (pending releases and chunk wakeups), the ready
/// queue, the cores, and the virtual clock.
struct HpState {
    jobs: Vec<Job>,
    /// Pending timed events: every not-yet-admitted release, plus one
    /// `ChunkWakeup` per currently throttled job.
    events: EventQueue,
    /// Released, runnable jobs (excluding the one executing a slice).
    ready: ReadyQueue,
    /// Virtual clock, ms within the hyper-period.
    t: f64,
    /// The virtual time chunk maintenance is current *as of* for
    /// boundary snapshots: the legacy engine maintains every job at
    /// each round's entry, so a boundary fired mid-round observes the
    /// previous maintenance pass. Lazy forwarding to this basis (and no
    /// further) reproduces those snapshots bit-for-bit.
    maint_time: f64,
    /// One entry per core, in core order. Machine-level counters
    /// (clamped draws, jobs completed at release, event statistics)
    /// land on core 0.
    cores: Vec<Core>,
    /// Jobs whose slices just ended unfinished; they are re-classified
    /// (ready vs throttled) at the *next* round's entry so boundary
    /// snapshots never observe a post-slice chunk advance early.
    pending: Vec<usize>,
    record: bool,
    class: SchedulingClass,
    wants_boundaries: bool,
    /// Leakage-aware dispatch floors, one per task: no request — from
    /// any policy — executes below max(f_min, critical speed). With
    /// zero static power this degenerates to the historical f_min
    /// floor.
    floors: Vec<f64>,
    dispatches: u64,
    /// Predecessor gate, when the set carries a task graph.
    gate: Option<Gate>,
    // Per-round scratch (kept to avoid reallocation).
    /// Selected jobs whose last core was taken (or who never ran), in
    /// eligibility order, awaiting the lowest free core.
    unplaced: Vec<usize>,
    admitted: Vec<usize>,
    woken: Vec<usize>,
    /// Jobs the gate freed at a predecessor's completion, awaiting
    /// classification at the next round's entry.
    ungated: Vec<usize>,
    // Arena buffers: owned here so hyper-period recycling (the retired
    // state is handed back to `HpState::new` as `recycle`) carries
    // every backing allocation across hyper-periods. See docs/PERF.md
    // for the ownership rules.
    /// Boundary snapshot scratch (`fire_boundary_with`).
    progress: Vec<InstanceProgress>,
    /// Arrival-window scratch for source-driven releases.
    arrival_buf: Vec<ArrivalJob>,
    /// DFS stack of `release_dependents`.
    dep_stack: Vec<usize>,
    /// One task's batched workload draws.
    draw_buf: Vec<Cycles>,
}

impl HpState {
    /// A state whose containers are all empty but reusable — the
    /// one-time allocations of a run. Per-hyper-period fields are
    /// (re)set by [`HpState::new`], which recycles the previous
    /// hyper-period's state (and with it every backing allocation)
    /// through its `recycle` argument.
    fn fresh(env: &Env<'_>) -> Self {
        let set = env.set;
        let instances = set.total_instances() as usize;
        HpState {
            jobs: Vec::with_capacity(instances),
            events: EventQueue::with_capacity(instances),
            ready: ReadyQueue::new(),
            t: 0.0,
            maint_time: f64::NEG_INFINITY,
            cores: (0..env.cores).map(|_| Core::new(set.len())).collect(),
            pending: Vec::with_capacity(env.cores),
            record: false,
            class: env.options.class.unwrap_or_else(|| set.class()),
            wants_boundaries: false,
            floors: set
                .tasks()
                .iter()
                .map(|t| env.cpu.floor_speed(t.c_eff()).as_cycles_per_ms())
                .collect(),
            dispatches: 0,
            gate: None,
            unplaced: Vec::with_capacity(env.cores),
            admitted: Vec::new(),
            woken: Vec::new(),
            ungated: Vec::new(),
            progress: Vec::new(),
            arrival_buf: Vec::new(),
            dep_stack: Vec::new(),
            draw_buf: Vec::new(),
        }
    }

    /// Draws the hyper-period's workloads, builds jobs, fires the
    /// `Start` boundary and queues every release event.
    ///
    /// With no `arrivals` source the built-in periodic pattern applies
    /// (one job per task instance, released on the grid `k·Pᵢ`). With a
    /// source, window `window` is consumed instead, and every job gets
    /// a synthetic single-chunk plan of its own.
    ///
    /// `recycle` hands back the previous hyper-period's state: every
    /// container is cleared (keeping its allocation) and every scalar
    /// reset, so the warm engine loop allocates nothing per job —
    /// pinned by `tests/alloc_budget.rs`. A recycled state is
    /// indistinguishable from a fresh one.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn new(
        env: &Env<'_>,
        policy: &mut dyn Policy,
        workload: &mut dyn WorkloadSource,
        abs_base: u64,
        record: bool,
        arrivals: Option<&mut Box<dyn ArrivalSource>>,
        window: u64,
        recycle: Option<HpState>,
    ) -> Result<Self, SimError> {
        let set = env.set;
        let has_schedule = env.schedule.is_some();
        let mut st = recycle.unwrap_or_else(|| HpState::fresh(env));
        st.jobs.clear();
        st.events.clear();
        st.ready.clear();
        st.t = 0.0;
        st.maint_time = f64::NEG_INFINITY;
        for core in &mut st.cores {
            core.report.reset(set.len());
            core.report.hyper_periods = 1;
            core.trace = record.then(ExecutionTrace::new);
            core.last_voltage = None;
            core.last_dispatched = None;
            core.job = None;
        }
        st.pending.clear();
        st.record = record;
        st.dispatches = 0;
        st.admitted.clear();
        st.woken.clear();
        st.ungated.clear();

        // ---- job construction & workload draws ----
        let built_in_releases = arrivals.is_none();
        match arrivals {
            None => {
                let mut abs_counter = abs_base;
                for (tid, task) in set.iter() {
                    let n = set.instances_of(tid);
                    // One batched draw per (task, hyper-period window).
                    // The engine has always drawn task-major, so the
                    // batch is the same consecutive call sequence —
                    // bit-identical streams (see `WorkloadSource`'s
                    // purity contract).
                    st.draw_buf.clear();
                    workload.draw_batch(tid, abs_counter, n, &mut st.draw_buf);
                    abs_counter += n;
                    for inst in 0..n {
                        let release = (inst * task.period().get()) as f64;
                        let drawn = st.draw_buf[inst as usize];
                        let raw = drawn.as_cycles();
                        if !raw.is_finite() || raw < 0.0 {
                            return Err(SimError::InvalidWorkload {
                                task: tid.0,
                                instance: inst,
                                cycles: raw,
                            });
                        }
                        let wcec = task.wcec().as_cycles();
                        let mut actual = if raw > wcec {
                            st.cores[0].report.clamped_draws += 1;
                            wcec
                        } else {
                            raw
                        };
                        // The schedule's budgets are the effective worst
                        // case; clamp to their sum so repair rounding
                        // cannot leave un-budgeted dust behind.
                        let budget_sum: f64 = env.plans[tid.0][inst as usize]
                            .iter()
                            .map(|c| c.budget)
                            .sum();
                        if has_schedule {
                            actual = actual.min(budget_sum);
                        }
                        let plan0 = env.plans[tid.0][inst as usize][0];
                        st.jobs.push(Job {
                            task: tid.0,
                            instance_in_hyper: inst,
                            release_ms: release,
                            deadline_ms: release + task.deadline().get() as f64,
                            remaining: actual,
                            executed: 0.0,
                            chunk: 0,
                            chunk_budget_left: plan0.budget,
                            done: false,
                            own_plan: None,
                            maintained_at: f64::NEG_INFINITY,
                            last_core: None,
                        });
                    }
                }
            }
            Some(src) => {
                st.arrival_buf.clear();
                src.fill_window(window, &mut st.arrival_buf).map_err(|e| {
                    SimError::ArrivalSource {
                        message: e.to_string(),
                    }
                })?;
                let fmax = env.cpu.f_max().as_cycles_per_ms();
                for (emit_idx, aj) in st.arrival_buf.iter().enumerate() {
                    let Some(task) = set.tasks().get(aj.task) else {
                        return Err(SimError::ArrivalSource {
                            message: format!(
                                "source `{}` released task {} but the set has {}",
                                src.name(),
                                aj.task,
                                set.len()
                            ),
                        });
                    };
                    if !aj.release_ms.is_finite()
                        || aj.release_ms < 0.0
                        || !aj.deadline_ms.is_finite()
                        || aj.deadline_ms <= aj.release_ms
                    {
                        return Err(SimError::ArrivalSource {
                            message: format!(
                                "source `{}` produced invalid timing for task {}: \
                                 release {} deadline {}",
                                src.name(),
                                aj.task,
                                aj.release_ms,
                                aj.deadline_ms
                            ),
                        });
                    }
                    let raw = match aj.cycles {
                        Some(c) => c,
                        None => workload.draw(TaskId(aj.task), aj.draw_index).as_cycles(),
                    };
                    if !raw.is_finite() || raw < 0.0 {
                        return Err(SimError::InvalidWorkload {
                            task: aj.task,
                            instance: aj.draw_index,
                            cycles: raw,
                        });
                    }
                    let wcec = task.wcec().as_cycles();
                    let actual = if raw > wcec {
                        st.cores[0].report.clamped_draws += 1;
                        wcec
                    } else {
                        raw
                    };
                    // Every sourced job is aperiodic and carries its
                    // own single-chunk plan: budget WCEC, window
                    // release→deadline, static speed sized to just meet
                    // the deadline at worst case (floored at the
                    // leakage-aware critical speed, capped at f_max).
                    let span = (aj.deadline_ms - aj.release_ms).max(1e-12);
                    let floor = env.cpu.critical_speed(task.c_eff()).as_cycles_per_ms();
                    let own = ChunkPlan {
                        start_ms: aj.release_ms,
                        end_ms: aj.deadline_ms,
                        budget: wcec,
                        static_speed: (wcec / span).min(fmax).max(floor),
                        sub: None,
                    };
                    st.jobs.push(Job {
                        task: aj.task,
                        // Never used for plan lookups (own_plan is
                        // authoritative); labels the job in traces by
                        // emission order.
                        instance_in_hyper: emit_idx as u64,
                        release_ms: aj.release_ms,
                        deadline_ms: aj.deadline_ms,
                        remaining: actual,
                        executed: 0.0,
                        chunk: 0,
                        chunk_budget_left: own.budget,
                        done: false,
                        own_plan: Some(own),
                        maintained_at: f64::NEG_INFINITY,
                        last_core: None,
                    });
                }
            }
        }
        // Schedule-boundary snapshots index jobs by periodic instance
        // ids; sourced windows have none, so re-optimizing policies
        // fall back to their chunk-local dispatch rule there.
        st.wants_boundaries = policy.wants_boundaries() && built_in_releases;
        // The hyper-period starts: schedule-aware policies get the
        // pristine boundary state before anything executes.
        if st.wants_boundaries {
            fire_boundary_with(
                policy,
                set,
                env.cpu,
                env.schedule,
                &st.jobs,
                0.0,
                BoundaryEvent::Start,
                &mut st.progress,
            );
        }

        // Queue every release. Jobs are task-major, so pushing in job
        // order makes the queue's `(time, kind, seq)` pop order exactly
        // the legacy `(time, task)` admission order.
        for (i, j) in st.jobs.iter().enumerate() {
            st.events.push(Event {
                time: j.release_ms,
                kind: EventKind::Release,
                job: i,
            });
        }

        // ---- predecessor gate ----
        // Only the built-in periodic pattern lays jobs out task-major
        // with one job per (task, instance); `Simulator::stepped`
        // rejects graphs combined with arrival sources up front. Gate
        // presence and topology are invariants of the run, so a
        // recycled gate just re-arms.
        match set.graph().filter(|g| built_in_releases && !g.is_empty()) {
            Some(g) => match st.gate.as_mut() {
                Some(gate) => gate.reset(),
                None => st.gate = Some(Gate::build(set, g, st.jobs.len())),
            },
            None => st.gate = None,
        }

        Ok(st)
    }

    /// Forwards chunk maintenance of every released job to the current
    /// snapshot basis ([`HpState::maint_time`]) — the state the legacy
    /// engine's eager per-round maintenance would show a boundary fired
    /// now. Jobs already maintained at (or past) the basis are left
    /// alone: re-maintaining a just-executed job at an *earlier* basis
    /// with its *post-slice* budget would advance chunks the legacy
    /// engine had not advanced yet.
    fn forward_maintenance(&mut self, env: &Env<'_>) {
        let basis = self.maint_time;
        if !basis.is_finite() {
            return;
        }
        for j in self.jobs.iter_mut() {
            if j.done
                || j.release_ms > basis + EPS
                || j.remaining <= CYCLE_EPS
                || j.maintained_at >= basis
            {
                continue;
            }
            let own = j.own_plan;
            let plan: &[ChunkPlan] = match &own {
                Some(cp) => std::slice::from_ref(cp),
                None => &env.plans[j.task][j.instance_in_hyper as usize],
            };
            maintain_job(j, plan, basis);
        }
    }

    /// Snapshots every job at the maintenance basis and hands the
    /// policy the boundary. `t` is the boundary's own timestamp (it can
    /// sit past the basis — e.g. a completion at slice end).
    fn fire_boundary_at(
        &mut self,
        env: &Env<'_>,
        policy: &mut dyn Policy,
        t: f64,
        event: BoundaryEvent,
    ) {
        self.forward_maintenance(env);
        fire_boundary_with(
            policy,
            env.set,
            env.cpu,
            env.schedule,
            &self.jobs,
            t,
            event,
            &mut self.progress,
        );
    }

    /// Maintains job `i` at time `t` and routes it: into the ready
    /// queue when runnable, or a `ChunkWakeup` event at its next
    /// chunk-window opening when throttled.
    fn classify(&mut self, env: &Env<'_>, i: usize, t: f64) {
        let j = &mut self.jobs[i];
        if j.done || j.remaining <= CYCLE_EPS {
            return;
        }
        let own = j.own_plan;
        let plan: &[ChunkPlan] = match &own {
            Some(cp) => std::slice::from_ref(cp),
            None => &env.plans[j.task][j.instance_in_hyper as usize],
        };
        maintain_job(j, plan, t);
        // A released job is throttled while its current chunk budget
        // is spent and its next chunk's window has not opened.
        if j.chunk_budget_left <= EPS && j.chunk + 1 < plan.len() {
            // `maintain_job` stopped short of the advance, so the next
            // window opens strictly later than `t + EPS` — the wakeup
            // is always a future event.
            self.events.push(Event {
                time: plan[j.chunk + 1].start_ms,
                kind: EventKind::ChunkWakeup,
                job: i,
            });
        } else {
            let deadline = match self.class {
                SchedulingClass::FixedPriorityRm => 0.0,
                SchedulingClass::Edf => j.deadline_ms,
            };
            let key = ReadyKey {
                deadline,
                task: self.jobs[i].task,
                release: self.jobs[i].release_ms,
                job: i,
            };
            self.ready.push(key);
        }
    }

    /// One engine round at the current clock: drain due events (admit
    /// releases, buffer wakeups), complete zero-workload jobs, advance
    /// the snapshot basis, re-classify woken/pending jobs, then either
    /// dispatch the most eligible jobs, one per core, as event handlers
    /// or idle-hop the clock to the next event. Returns `Ok(false)` when
    /// the hyper-period is finished.
    ///
    /// One round serves every core count: it selects up to `m` jobs,
    /// places them on cores, dispatches the cores in core order, runs
    /// them all to the earliest slice end and completes jobs in core
    /// order. On one core that is exactly one dispatch per round.
    #[allow(clippy::too_many_lines)]
    fn round(&mut self, env: &Env<'_>, policy: &mut dyn Policy) -> Result<bool, SimError> {
        let t = self.t;

        // ---- due events: admissions first, wakeups buffered ----
        // Releases pop ahead of same-timestamp wakeups (kind priority),
        // and every admission — with its policy hooks and boundary —
        // happens before any wakeup is acted on, mirroring the legacy
        // admit-then-maintain round structure.
        self.admitted.clear();
        self.woken.clear();
        while let Some(ev) = self.events.pop_if(|e| e.time <= t + EPS) {
            match ev.kind {
                EventKind::Release => {
                    let task = TaskId(self.jobs[ev.job].task);
                    policy.on_release(task, env.set, env.cpu);
                    self.admitted.push(ev.job);
                    if self.wants_boundaries {
                        self.fire_boundary_at(env, policy, t, BoundaryEvent::Release(task));
                    }
                }
                EventKind::ChunkWakeup => self.woken.push(ev.job),
            }
        }

        // ---- zero-workload jobs complete instantly ----
        // In job-index order, like the legacy scan (the order is
        // policy-visible through completion hooks and boundaries).
        self.admitted.sort_unstable();
        // Predecessor gate: an admitted job with unfinished predecessor
        // jobs waits — released (hooks fired above) but neither
        // instantly completed nor classified until the gate opens.
        if let Some(g) = self.gate.as_mut() {
            for &i in &self.admitted {
                if g.pred_left[i] > 0 {
                    g.waiting[i] = true;
                }
            }
        }
        for k in 0..self.admitted.len() {
            let i = self.admitted[k];
            if self.gate.as_ref().is_some_and(|g| g.waiting[i]) {
                continue;
            }
            if !self.jobs[i].done && self.jobs[i].remaining <= CYCLE_EPS {
                let j = &mut self.jobs[i];
                j.done = true;
                let (task, executed) = (TaskId(j.task), j.executed);
                self.cores[0].report.jobs_completed += 1;
                policy.on_completion(task, Cycles::from_cycles(executed), env.set, env.cpu);
                if self.wants_boundaries {
                    self.fire_boundary_at(env, policy, t, BoundaryEvent::Completion(task));
                }
                self.release_dependents(env, policy, i, t, 0, true);
            }
        }

        // Everything after this point observes maintenance as of `t`.
        self.maint_time = t;

        // ---- classification: pending slice-end jobs, woken jobs, and
        // newly admitted jobs enter the ready queue (or a wakeup) ----
        for k in 0..self.pending.len() {
            let i = self.pending[k];
            self.classify(env, i, t);
        }
        self.pending.clear();
        // Jobs the gate freed at a predecessor's completion (in this
        // round's instant scan, or the previous round's slice end).
        for k in 0..self.ungated.len() {
            let i = self.ungated[k];
            self.classify(env, i, t);
        }
        self.ungated.clear();
        for k in 0..self.woken.len() {
            let i = self.woken[k];
            self.classify(env, i, t);
        }
        for k in 0..self.admitted.len() {
            let i = self.admitted[k];
            if self.gate.as_ref().is_some_and(|g| g.waiting[i]) {
                continue;
            }
            self.classify(env, i, t);
        }

        // ---- selection and sticky placement ----
        // Pop up to one job per core, in eligibility order. A pick keeps
        // the core it last ran on when that core is free; the others
        // wait in `unplaced` and then take the lowest free cores, in
        // eligibility order. When one core is left, the pick is the last
        // and nothing waits before it, so that core is its only choice.
        self.unplaced.clear();
        let mut placed = 0;
        while placed + self.unplaced.len() < self.cores.len() {
            let Some(key) = self.ready.pop() else { break };
            let i = key.job;
            if placed + 1 == self.cores.len() {
                let only = self
                    .cores
                    .iter()
                    .position(|core| core.job.is_none())
                    .expect("one core is left");
                self.place(i, only);
            } else {
                match self.jobs[i].last_core {
                    Some(c) if self.cores[c].job.is_none() => self.place(i, c),
                    _ => {
                        self.unplaced.push(i);
                        continue;
                    }
                }
            }
            placed += 1;
        }
        if placed == 0 && self.unplaced.is_empty() {
            // Idle until the next release or throttle expiry.
            let next = self.events.next_time();
            if next.is_finite() {
                for core in &mut self.cores {
                    core.charge_idle(env.cpu, next - t);
                }
                self.t = next;
                return Ok(true);
            }
            // Shut down for the rest of the hyper-period (still charged
            // at `idle_power`, which models a platform without
            // power-gating; the paper's processor has it at zero).
            let h = env.set.hyper_period().get() as f64;
            if t < h {
                for core in &mut self.cores {
                    core.charge_idle(env.cpu, h - t);
                }
            }
            let report = &mut self.cores[0].report;
            report.events_handled = self.events.popped() as u64 + self.dispatches;
            report.event_queue_peak = self.events.high_water();
            return Ok(false);
        }
        // Claimed cores stay claimed, so the lowest free core only moves
        // up.
        let mut free = 0;
        for k in 0..self.unplaced.len() {
            while self.cores[free].job.is_some() {
                free += 1;
            }
            self.place(self.unplaced[k], free);
        }

        // ---- dispatch, in core order ----
        // The queue's head is min(next release, next wakeup); IEEE
        // subtraction is monotone, so folding the two legacy terms into
        // one is bit-identical.
        let next_event = self.events.next_time();
        let overhead = env.cpu.overhead();
        let mut round_end = f64::INFINITY;
        for (c, core) in self.cores.iter_mut().enumerate() {
            let Some(job_idx) = core.job else {
                continue;
            };
            // The selected job's chunk state is maintained lazily,
            // exactly here (see `maintain_job` for why this equals eager
            // per-round maintenance).
            let own = self.jobs[job_idx].own_plan;
            let plan: &[ChunkPlan] = match &own {
                Some(cp) => std::slice::from_ref(cp),
                None => {
                    let j = &self.jobs[job_idx];
                    &env.plans[j.task][j.instance_in_hyper as usize]
                }
            };
            maintain_job(&mut self.jobs[job_idx], plan, t);
            if let Some(prev) = core.last_dispatched {
                if prev != job_idx && !self.jobs[prev].done && self.jobs[prev].remaining > CYCLE_EPS
                {
                    core.report.preemptions += 1;
                }
            }
            core.last_dispatched = Some(job_idx);
            self.dispatches += 1;

            let j = &mut self.jobs[job_idx];
            j.last_core = Some(c);
            let (task, budget_left, remaining) = (j.task, j.chunk_budget_left, j.remaining);
            let cp = match j.own_plan {
                Some(cp) => cp,
                None => env.plans[task][j.instance_in_hyper as usize][j.chunk],
            };
            let ctx = DispatchContext {
                set: env.set,
                cpu: env.cpu,
                task: TaskId(task),
                now: Time::from_ms(t),
                chunk_end: Time::from_ms(cp.end_ms),
                chunk_budget_remaining: Cycles::from_cycles(budget_left),
                static_speed: Freq::from_cycles_per_ms(cp.static_speed),
                sub: cp.sub,
            };
            let (speed, clamped) = env.cpu.clamp_speed(policy.on_dispatch(&ctx));
            // Leakage floor: under-requests rise (unflagged, like the
            // f_min clamp — running faster than asked never endangers
            // deadlines) to the task's critical speed.
            let speed = speed.max(Freq::from_cycles_per_ms(self.floors[task]));
            // The clamp keeps `speed` realizable by the *continuous*
            // model; a discrete level table whose highest level sits
            // below `vmax` can still fail to serve it, in which case the
            // engine saturates at `vmax` (the historical fallback). Both
            // paths are one saturated dispatch — never double-counted.
            let (v, table_saturated) = match env.cpu.dispatch_voltage(speed) {
                Ok(v) => (v, false),
                Err(_) => (env.cpu.vmax(), true),
            };
            if clamped || table_saturated {
                core.report.saturated_dispatches += 1;
            }
            let f_actual = env
                .cpu
                .freq_at(v)
                .map_err(|_| SimError::StalledProcessor)?
                .as_cycles_per_ms();
            if f_actual <= 1e-12 {
                return Err(SimError::StalledProcessor);
            }

            // Voltage transition accounting (dead time + energy): each
            // core switches, and waits out the switch, on its own.
            let changed = core
                .last_voltage
                .map(|lv| (lv - v.as_volts()).abs() > 1e-9)
                .unwrap_or(false);
            let mut start = t;
            if changed {
                core.report.voltage_switches += 1;
                core.report.energy += overhead.energy;
                start += overhead.time.as_ms();
            }
            core.last_voltage = Some(v.as_volts());

            let until_complete = remaining / f_actual;
            // A spent last chunk (possible only with inconsistent custom
            // schedules) no longer gates execution — run the remainder.
            let until_budget = if budget_left > EPS && budget_left < remaining {
                budget_left / f_actual
            } else {
                f64::INFINITY
            };
            let until_event = if next_event.is_finite() {
                (next_event - start).max(0.0)
            } else {
                f64::INFINITY
            };
            // Progress guard: a zero-length slice can only come from a
            // release exactly at `t`, which the admission drain absorbs.
            let dt = until_complete.min(until_budget).min(until_event).max(0.0);
            core.start = start;
            core.dt = dt;
            core.freq = f_actual;
            core.volt = v;
            round_end = round_end.min(start + dt);
        }

        // ---- execute every core until the round ends ----
        // The round ends at the earliest slice end. A slice ending there
        // runs in full; a longer one is cut there, where the next round
        // re-plans the machine.
        for core in &mut self.cores {
            let Some(job_idx) = core.job else {
                core.charge_idle(env.cpu, round_end - t);
                continue;
            };
            if core.start + core.dt > round_end {
                core.dt = (round_end - core.start).max(0.0);
            }
            let (start, dt, v) = (core.start, core.dt, core.volt);
            let cycles = core.freq * dt;
            let j = &mut self.jobs[job_idx];
            j.remaining = (j.remaining - cycles).max(0.0);
            j.chunk_budget_left -= cycles;
            j.executed += cycles;
            let task = j.task;
            let c_eff = env.set.tasks()[task].c_eff();
            let e = env.cpu.energy(c_eff, v, Cycles::from_cycles(cycles));
            core.report.energy += e;
            core.report.per_task_energy[task] += e;
            let leak = env.cpu.static_power_at(v);
            if leak > 0.0 {
                let e_static = Energy::from_units(leak * dt);
                core.report.static_energy += e_static;
                core.report.energy += e_static;
            }
            core.report.busy_time += TimeSpan::from_ms(dt);
            if let Some(tr) = core.trace.as_mut() {
                if dt > 0.0 {
                    tr.push(Slice {
                        task: TaskId(task),
                        instance: j.instance_in_hyper,
                        start: Time::from_ms(start),
                        end: Time::from_ms(start + dt),
                        voltage: v,
                    });
                }
            }
        }
        self.t = round_end;

        // ---- completions (derived events: no queue round-trip), in
        // core order; every core is free again afterwards ----
        for c in 0..self.cores.len() {
            let core = &mut self.cores[c];
            let Some(job_idx) = core.job.take() else {
                continue;
            };
            let end = core.start + core.dt;
            let j = &mut self.jobs[job_idx];
            if j.remaining > CYCLE_EPS {
                self.pending.push(job_idx);
                continue;
            }
            j.done = true;
            let report = &mut core.report;
            report.jobs_completed += 1;
            report.worst_lateness_ms = report.worst_lateness_ms.max(end - j.deadline_ms);
            if end > j.deadline_ms + env.options.deadline_tol_ms {
                report.deadline_misses += 1;
                if j.own_plan.is_some() {
                    report.misses_aperiodic += 1;
                }
            }
            let (ctask, executed) = (TaskId(j.task), j.executed);
            policy.on_completion(ctask, Cycles::from_cycles(executed), env.set, env.cpu);
            if self.wants_boundaries {
                // The snapshot basis is this round's entry time — the
                // slice's own budget/progress deltas are visible, its
                // chunk advance is not (it happens next round).
                self.fire_boundary_at(env, policy, end, BoundaryEvent::Completion(ctask));
            }
            self.release_dependents(env, policy, job_idx, end, c, false);
        }
        Ok(true)
    }

    /// Puts job `i` on `core` for this round. Arriving on a core other
    /// than the one it last ran on is a migration, counted on `core`; a
    /// first dispatch is never one.
    fn place(&mut self, i: usize, core: usize) {
        self.cores[core].job = Some(i);
        if self.jobs[i].last_core.is_some_and(|c| c != core) {
            self.cores[core].report.migrations += 1;
        }
    }

    /// Propagates a completion through the predecessor gate: every
    /// dependent of `root` loses one outstanding predecessor, and a
    /// *waiting* dependent whose count reaches zero is freed — a job
    /// with no remaining work completes instantly here (full deadline
    /// accounting on `core`, hooks, cascading further), one with work
    /// is queued for classification at the next classification pass.
    /// `during_admission` marks calls from the instant-completion scan,
    /// where jobs freed out of this round's own admissions are left to
    /// the admitted classification loop instead of the queue (pushing
    /// both would classify them twice).
    #[allow(clippy::too_many_arguments)]
    fn release_dependents(
        &mut self,
        env: &Env<'_>,
        policy: &mut dyn Policy,
        root: usize,
        t: f64,
        core: usize,
        during_admission: bool,
    ) {
        // The gate moves out of `self` for the traversal (and back in
        // at the end) so dependents can be walked in place — no
        // per-completion clone of the successor list, no per-call stack
        // allocation (`dep_stack` is part of the arena).
        let Some(mut gate) = self.gate.take() else {
            return;
        };
        self.dep_stack.clear();
        self.dep_stack.push(root);
        while let Some(done_job) = self.dep_stack.pop() {
            for k in 0..gate.succ_jobs[done_job].len() {
                let s = gate.succ_jobs[done_job][k];
                gate.pred_left[s] -= 1;
                if gate.pred_left[s] > 0 || !gate.waiting[s] {
                    continue;
                }
                gate.waiting[s] = false;
                if !self.jobs[s].done && self.jobs[s].remaining <= CYCLE_EPS {
                    let j = &mut self.jobs[s];
                    j.done = true;
                    let report = &mut self.cores[core].report;
                    report.jobs_completed += 1;
                    report.worst_lateness_ms = report.worst_lateness_ms.max(t - j.deadline_ms);
                    if t > j.deadline_ms + env.options.deadline_tol_ms {
                        report.deadline_misses += 1;
                    }
                    let (ctask, executed) = (TaskId(j.task), j.executed);
                    policy.on_completion(ctask, Cycles::from_cycles(executed), env.set, env.cpu);
                    if self.wants_boundaries {
                        self.fire_boundary_at(env, policy, t, BoundaryEvent::Completion(ctask));
                    }
                    self.dep_stack.push(s);
                } else if !(during_admission && self.admitted.contains(&s)) {
                    self.ungated.push(s);
                }
            }
        }
        self.gate = Some(gate);
    }
}

/// A paused, resumable simulation run created by [`Simulator::stepped`]:
/// the full multi-hyper-period run, advanced one event round at a time.
pub struct SteppedRun<'s, 'a, 'w> {
    sim: &'s mut Simulator<'a>,
    workload: &'w mut dyn WorkloadSource,
    plans: Vec<Vec<Vec<ChunkPlan>>>,
    /// Per-core totals so far, in core order.
    cores: Vec<CoreOutput>,
    instances_per_hyper: u64,
    abs_base: u64,
    h: u64,
    stats_before: Option<SolverStats>,
    current: Option<HpState>,
    /// The previous hyper-period's retired state: its buffers are
    /// recycled into the next `HpState` so the warm loop allocates
    /// nothing per hyper-period.
    spare: Option<HpState>,
    done: bool,
}

impl std::fmt::Debug for SteppedRun<'_, '_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SteppedRun")
            .field("hyper_period", &self.h)
            .field("clock_ms", &self.clock_ms())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl SteppedRun<'_, '_, '_> {
    /// The absolute virtual clock (ms since the run began, across
    /// hyper-periods), or `None` once the run has finished.
    pub fn clock_ms(&self) -> Option<f64> {
        if self.done {
            return None;
        }
        let h_ms = self.sim.set.hyper_period().get() as f64;
        Some(match &self.current {
            Some(s) => self.h as f64 * h_ms + s.t,
            None => self.h as f64 * h_ms,
        })
    }

    /// `true` once every hyper-period has been simulated.
    pub fn is_finished(&self) -> bool {
        self.done
    }

    /// Advances the run by one engine round (one event-queue drain +
    /// dispatch or idle hop). Returns `Ok(false)` once the run is
    /// finished.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; a failed step poisons the run (`done`).
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.done {
            return Ok(false);
        }
        let sim = &mut *self.sim;
        let env = Env {
            set: sim.set,
            cpu: sim.cpu,
            schedule: sim.schedule,
            options: &sim.options,
            plans: &self.plans,
            cores: sim.cores,
        };
        let policy = sim.policy.as_mut();
        if self.current.is_none() {
            // A finite source (trace replay) ends the run as soon as no
            // further window can release anything; generators never
            // exhaust, so `hyper_periods` is their only cap.
            let source_done = sim.arrivals.as_ref().is_some_and(|s| s.exhausted());
            if self.h >= env.options.hyper_periods || source_done {
                self.finalize();
                return Ok(false);
            }
            let record = env.options.record_trace && self.h == 0;
            policy.on_start(env.set, env.cpu);
            let state = match HpState::new(
                &env,
                policy,
                &mut *self.workload,
                self.abs_base,
                record,
                sim.arrivals.as_mut(),
                self.h,
                self.spare.take(),
            ) {
                Ok(s) => s,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            self.current = Some(state);
        }
        let state = self.current.as_mut().expect("hyper-period state exists");
        match state.round(&env, policy) {
            Ok(true) => Ok(true),
            Ok(false) => {
                let mut state = self.current.take().expect("hyper-period state exists");
                for (total, core) in self.cores.iter_mut().zip(&mut state.cores) {
                    total.report.absorb(&core.report);
                    if state.record {
                        total.trace = core.trace.take();
                    }
                }
                // Retire the state: the next hyper-period reuses every
                // backing allocation.
                self.spare = Some(state);
                self.h += 1;
                self.abs_base += self.instances_per_hyper;
                if self.h >= self.sim.options.hyper_periods {
                    self.finalize();
                    return Ok(false);
                }
                Ok(true)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    /// Attribute this run's share of the policy's cumulative solver
    /// counters (policies persist across consecutive `run` calls) to
    /// core 0.
    fn finalize(&mut self) {
        if let Some(after) = self.sim.policy.solver_stats() {
            let delta = after.delta_since(self.stats_before.unwrap_or_default());
            let report = &mut self.cores[0].report;
            report.solver_lookups = delta.lookups;
            report.solver_cache_hits = delta.cache_hits;
            report.boundary_resolves = delta.resolves;
            report.resolves_adopted = delta.adopted;
            report.warm_carry_hits = delta.warm_carry_hits;
        }
        self.done = true;
    }

    /// Drives the run to completion and returns the aggregate output —
    /// exactly what [`Simulator::run`] returns.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn finish(mut self) -> Result<RunOutput, SimError> {
        while self.step()? {}
        let mut cores = self.cores;
        if cores.len() == 1 {
            let CoreOutput { report, trace } = cores.pop().expect("one core");
            return Ok(RunOutput {
                report,
                trace,
                cores: Vec::new(),
            });
        }
        let mut report = SimReport::empty(self.sim.set.len());
        for core in &cores {
            report.absorb(&core.report);
        }
        report.hyper_periods = cores[0].report.hyper_periods;
        Ok(RunOutput {
            report,
            trace: None,
            cores,
        })
    }
}

/// Snapshots every job's execution state and hands the policy a
/// [`SolverContext`]. Costs `O(jobs)`, so callers gate it behind
/// [`Policy::wants_boundaries`]. Allocating convenience over
/// [`fire_boundary_with`], used by the frozen legacy oracle — which
/// stays allocation-unoptimized by design (see `docs/ENGINE.md`); the
/// event engine always passes its recycled scratch buffer instead.
#[cfg_attr(not(feature = "legacy-engine"), allow(dead_code))]
pub(crate) fn fire_boundary(
    policy: &mut dyn Policy,
    set: &TaskSet,
    cpu: &Processor,
    schedule: Option<&StaticSchedule>,
    jobs: &[Job],
    t: f64,
    event: BoundaryEvent,
) {
    let mut progress = Vec::new();
    fire_boundary_with(policy, set, cpu, schedule, jobs, t, event, &mut progress);
}

/// [`fire_boundary`] writing the per-job snapshot into a reusable
/// `progress` buffer (cleared and refilled here) instead of allocating
/// a fresh `Vec` per boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fire_boundary_with(
    policy: &mut dyn Policy,
    set: &TaskSet,
    cpu: &Processor,
    schedule: Option<&StaticSchedule>,
    jobs: &[Job],
    t: f64,
    event: BoundaryEvent,
    progress: &mut Vec<InstanceProgress>,
) {
    const EPS: f64 = 1e-9;
    progress.clear();
    progress.extend(jobs.iter().map(|j| InstanceProgress {
        instance: acs_preempt::InstanceId {
            task: TaskId(j.task),
            index: j.instance_in_hyper,
        },
        executed: Cycles::from_cycles(j.executed),
        current_chunk: j.chunk,
        chunk_budget_left: Cycles::from_cycles(j.chunk_budget_left.max(0.0)),
        released: j.release_ms <= t + EPS,
        done: j.done,
    }));
    let ctx = SolverContext {
        set,
        cpu,
        schedule,
        now: Time::from_ms(t),
        event,
        progress,
    };
    policy.on_boundary(&ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CcRm, GreedyReclaim, NoDvs, StaticSpeed};
    use acs_core::{synthesize_acs, synthesize_wcs, SynthesisOptions};
    use acs_model::units::{Ticks, Volt};
    use acs_model::Task;
    use acs_power::FreqModel;

    /// Energy of running `schedule` under the greedy policy with
    /// deterministic per-task workloads, for one hyper-period — the
    /// simulator's side of the cross-check against
    /// [`acs_core::trace::evaluate_trace`].
    fn simulate_deterministic(
        set: &TaskSet,
        cpu: &Processor,
        schedule: &StaticSchedule,
        totals: &[Cycles],
    ) -> Result<Energy, SimError> {
        let mut sim = Simulator::new(set, cpu, GreedyReclaim).with_schedule(schedule);
        let out = sim.run(&mut |tid: TaskId, _: u64| totals[tid.0])?;
        Ok(out.report.energy)
    }

    fn motivation() -> (TaskSet, Processor) {
        let mk = |n: &str| {
            Task::builder(n, Ticks::new(20))
                .wcec(Cycles::from_cycles(1000.0))
                .acec(Cycles::from_cycles(500.0))
                .bcec(Cycles::from_cycles(100.0))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![mk("t1"), mk("t2"), mk("t3")]).unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    fn preemptive_set() -> (TaskSet, Processor) {
        let set = TaskSet::new(vec![
            Task::builder("hi", Ticks::new(4))
                .wcec(Cycles::from_cycles(100.0))
                .acec(Cycles::from_cycles(40.0))
                .bcec(Cycles::from_cycles(10.0))
                .build()
                .unwrap(),
            Task::builder("lo", Ticks::new(8))
                .wcec(Cycles::from_cycles(150.0))
                .acec(Cycles::from_cycles(60.0))
                .bcec(Cycles::from_cycles(15.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.3))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        (set, cpu)
    }

    #[test]
    fn greedy_matches_analytic_trace_on_motivation() {
        let (set, cpu) = motivation();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let analytic = acs_core::evaluate_trace(
            &sched,
            &set,
            &cpu,
            &totals,
            acs_core::SpeedBasis::WorstRemaining,
        );
        let simulated = simulate_deterministic(&set, &cpu, &sched, &totals).unwrap();
        assert!(
            (analytic.energy.as_units() - simulated.as_units()).abs()
                < 1e-6 * analytic.energy.as_units(),
            "analytic {} vs simulated {}",
            analytic.energy,
            simulated
        );
    }

    #[test]
    fn greedy_matches_analytic_trace_on_preemptive_set() {
        let (set, cpu) = preemptive_set();
        for synth in [synthesize_acs, synthesize_wcs] {
            let sched = synth(&set, &cpu, &SynthesisOptions::default()).unwrap();
            for totals in [
                acs_core::trace::acec_totals(&set),
                acs_core::trace::wcec_totals(&set),
                vec![Cycles::from_cycles(25.0), Cycles::from_cycles(80.0)],
            ] {
                let analytic = acs_core::evaluate_trace(
                    &sched,
                    &set,
                    &cpu,
                    &totals,
                    acs_core::SpeedBasis::WorstRemaining,
                );
                let simulated = simulate_deterministic(&set, &cpu, &sched, &totals).unwrap();
                assert!(
                    (analytic.energy.as_units() - simulated.as_units()).abs()
                        < 1e-6 * analytic.energy.as_units().max(1.0),
                    "kind {:?}: analytic {} vs simulated {}",
                    sched.kind(),
                    analytic.energy,
                    simulated
                );
            }
        }
    }

    #[test]
    fn worst_case_meets_deadlines_exactly() {
        let (set, cpu) = preemptive_set();
        let sched = synthesize_acs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::wcec_totals(&set);
        let mut sim = Simulator::new(&set, &cpu, GreedyReclaim).with_schedule(&sched);
        let out = sim.run(&mut |tid: TaskId, _: u64| totals[tid.0]).unwrap();
        assert_eq!(out.report.deadline_misses, 0);
        assert_eq!(out.report.jobs_completed, set.total_instances() as usize);
    }

    #[test]
    fn no_dvs_runs_flat_out_and_idles() {
        let (set, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .with_options(SimOptions {
                record_trace: true,
                ..Default::default()
            })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        // 3000 cycles at 200 cyc/ms = 15 ms busy, 5 ms idle.
        assert!((out.report.busy_time.as_ms() - 15.0).abs() < 1e-9);
        assert!((out.report.idle_time.as_ms() - 5.0).abs() < 1e-9);
        // All at 4 V: E = 16·3000.
        assert!((out.report.energy.as_units() - 48000.0).abs() < 1e-6);
        let trace = out.trace.unwrap();
        assert!(!trace.is_empty());
    }

    /// The predecessor gate: with `t2 -> t0` on the motivation frame
    /// (where RM alone would run t0 first), every t0 slice starts after
    /// its predecessor's last slice ends, and a graph with an arrival
    /// source is rejected up front.
    #[test]
    fn predecessor_gate_orders_execution() {
        let (set, cpu) = motivation();
        let g = acs_model::TaskGraph::new(&set, [("t3", "t1")]).unwrap();
        let set = set.with_graph(g);
        let out = Simulator::new(&set, &cpu, NoDvs)
            .with_options(SimOptions {
                record_trace: true,
                ..Default::default()
            })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert_eq!(out.report.jobs_completed, 3);
        assert_eq!(out.report.deadline_misses, 0);
        let trace = out.trace.unwrap();
        // "t1" sorts to TaskId(0), "t3" to TaskId(2) (equal periods keep
        // insertion order t1,t2,t3).
        let pred_end = trace
            .slices()
            .iter()
            .filter(|s| s.task == TaskId(2))
            .map(|s| s.end.as_ms())
            .fold(0.0f64, f64::max);
        let succ_start = trace
            .slices()
            .iter()
            .filter(|s| s.task == TaskId(0))
            .map(|s| s.start.as_ms())
            .fold(f64::INFINITY, f64::min);
        assert!(
            succ_start + 1e-9 >= pred_end,
            "successor started at {succ_start} before predecessor finished at {pred_end}"
        );
        // Same seedless deterministic run twice: byte-identical reports.
        let again = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert_eq!(out.report, again.report);
        // Graphs require the built-in periodic release pattern.
        let err = Simulator::new(&set, &cpu, NoDvs)
            .with_arrivals(Box::new(acs_trace::Sporadic::new(&set, 1)))
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1.0))
            .unwrap_err();
        assert_eq!(err, SimError::GraphWithArrivals);
    }

    #[test]
    fn static_policy_between_no_dvs_and_greedy() {
        let (set, cpu) = motivation();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let mut energies = Vec::new();
        let policies: [Box<dyn Policy>; 3] = [
            Box::new(NoDvs),
            Box::new(StaticSpeed),
            Box::new(GreedyReclaim),
        ];
        for policy in policies {
            let name = policy.name().to_string();
            let out = Simulator::new(&set, &cpu, policy)
                .with_schedule(&sched)
                .run(&mut |tid: TaskId, _: u64| totals[tid.0])
                .unwrap();
            assert_eq!(out.report.deadline_misses, 0, "{name}");
            energies.push(out.report.energy.as_units());
        }
        assert!(energies[1] < energies[0], "static < no-dvs: {energies:?}");
        assert!(
            energies[2] < energies[1] + 1e-9,
            "greedy ≤ static: {energies:?}"
        );
    }

    #[test]
    fn ccrm_reclaims_online_only() {
        let (set, cpu) = motivation();
        let totals = acs_core::trace::acec_totals(&set);
        let out = Simulator::new(&set, &cpu, CcRm::new())
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert_eq!(out.report.deadline_misses, 0);
        // Better than no-DVS on average workloads.
        let no_dvs = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert!(out.report.energy < no_dvs.report.energy);
    }

    #[test]
    fn multiple_hyper_periods_accumulate() {
        let (set, cpu) = preemptive_set();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(SimOptions {
                hyper_periods: 10,
                ..Default::default()
            })
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert_eq!(out.report.hyper_periods, 10);
        assert_eq!(
            out.report.jobs_completed,
            10 * set.total_instances() as usize
        );
        let single = simulate_deterministic(&set, &cpu, &sched, &totals).unwrap();
        assert!((out.report.energy_per_hyper_period().as_units() - single.as_units()).abs() < 1e-9);
    }

    #[test]
    fn schedule_required_error() {
        let (set, cpu) = motivation();
        let err = Simulator::new(&set, &cpu, GreedyReclaim)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1.0))
            .unwrap_err();
        assert!(matches!(err, SimError::ScheduleRequired { .. }));
    }

    #[test]
    fn schedule_mismatch_detected() {
        let (set, cpu) = motivation();
        let (other_set, other_cpu) = preemptive_set();
        let sched = synthesize_wcs(&other_set, &other_cpu, &SynthesisOptions::default()).unwrap();
        let err = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1.0))
            .unwrap_err();
        assert!(matches!(err, SimError::ScheduleMismatch { .. }));
    }

    #[test]
    fn invalid_workload_rejected_and_clamped() {
        let (set, cpu) = motivation();
        let err = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(-5.0))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidWorkload { .. }));
        let out = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(9999.0))
            .unwrap();
        assert_eq!(out.report.clamped_draws, 3);
    }

    #[test]
    fn zero_workload_jobs_complete_without_energy() {
        let (set, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(0.0))
            .unwrap();
        assert_eq!(out.report.jobs_completed, 3);
        assert_eq!(out.report.energy, Energy::ZERO);
        assert_eq!(out.report.deadline_misses, 0);
    }

    #[test]
    fn preemption_occurs_in_trace() {
        let (set, cpu) = preemptive_set();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::wcec_totals(&set);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(SimOptions {
                record_trace: true,
                ..Default::default()
            })
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        let trace = out.trace.unwrap();
        // In the worst case `lo` must be split around `hi`'s release at 4.
        let lo_slices: Vec<_> = trace
            .slices()
            .iter()
            .filter(|s| s.task == TaskId(1))
            .collect();
        assert!(
            lo_slices.len() >= 2,
            "lo executed in {} slices",
            lo_slices.len()
        );
        // Priority invariant: `hi` never waits while `lo` runs after its
        // release.
        for s in trace.slices() {
            if s.task == TaskId(1) {
                // During any lo-slice, hi must have no pending work: hi
                // releases at 0 and 4; a lo slice crossing a release
                // boundary would violate preemption.
                let crosses = s.start.as_ms() < 4.0 && s.end.as_ms() > 4.0 + 1e-9;
                assert!(!crosses, "lo slice crosses hi release: {s:?}");
            }
        }
    }

    #[test]
    fn transition_overhead_accounted() {
        let (set, cpu0) = motivation();
        let cpu = Processor::builder(cpu0.freq_model().clone())
            .vmin(cpu0.vmin())
            .vmax(cpu0.vmax())
            .transition_overhead(acs_power::TransitionOverhead {
                time: TimeSpan::from_ms(0.01),
                energy: Energy::from_units(5.0),
            })
            .build()
            .unwrap();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert!(out.report.voltage_switches > 0);
        // Energy strictly above the zero-overhead run.
        let base = simulate_deterministic(&set, &cpu0, &sched, &totals).unwrap();
        assert!(out.report.energy > base);
    }

    /// A policy requesting wild speeds is clamped at the engine boundary:
    /// the run completes, energy equals the all-fmax run, over-requests
    /// are counted as saturated dispatches.
    #[test]
    fn rogue_policy_speeds_are_clamped() {
        struct Rogue {
            calls: usize,
        }
        impl Policy for Rogue {
            fn name(&self) -> &str {
                "rogue"
            }
            fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
                self.calls += 1;
                match self.calls % 3 {
                    0 => Freq::from_cycles_per_ms(f64::INFINITY),
                    1 => Freq::from_cycles_per_ms(1e9),
                    _ => Freq::from_cycles_per_ms(f64::NAN),
                }
            }
        }
        let (set, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, Rogue { calls: 0 })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert_eq!(out.report.deadline_misses, 0);
        assert!(out.report.saturated_dispatches > 0);
        let flat = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert!((out.report.energy.as_units() - flat.report.energy.as_units()).abs() < 1e-9);
    }

    /// A discrete level table whose highest level sits below `vmax`
    /// cannot serve a near-`f_max` request: the engine saturates at
    /// `vmax` and counts it — exactly once, even when the request was
    /// also clamped at the engine boundary.
    #[test]
    fn short_level_table_saturation_is_counted_once() {
        use acs_power::LevelTable;
        let (set, _) = motivation();
        let table = LevelTable::new(
            [1.0, 2.0, 3.0]
                .iter()
                .map(|&v| Volt::from_volts(v))
                .collect(),
        )
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(1.0))
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .build()
            .unwrap();
        // NoDvs requests exactly f_max (needs 4 V; the table tops out at
        // 3 V): every dispatch saturates via the table fallback.
        let flat = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert!(flat.report.saturated_dispatches > 0);
        // A policy over-requesting past f_max is clamped AND unservable
        // by the table — still one saturation per dispatch, not two.
        struct Over;
        impl Policy for Over {
            fn name(&self) -> &str {
                "over"
            }
            fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
                Freq::from_cycles_per_ms(1e9)
            }
        }
        let over = Simulator::new(&set, &cpu, Over)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert_eq!(
            over.report.saturated_dispatches,
            flat.report.saturated_dispatches
        );
        assert_eq!(over.report.energy, flat.report.energy);
    }

    /// With static power modeled, busy slices accrue leakage energy and
    /// idle spans accrue idle energy; the breakdown reconciles exactly
    /// with the total.
    #[test]
    fn leakage_and_idle_energy_accounted() {
        let (set, cpu0) = motivation();
        let cpu = Processor::builder(cpu0.freq_model().clone())
            .vmin(cpu0.vmin())
            .vmax(cpu0.vmax())
            .static_power(2.0)
            .idle_power(0.5)
            .build()
            .unwrap();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        // 3000 cycles at 200 cyc/ms = 15 ms busy, 5 ms idle.
        assert!((out.report.static_energy.as_units() - 2.0 * 15.0).abs() < 1e-9);
        assert!((out.report.idle_energy.as_units() - 0.5 * 5.0).abs() < 1e-9);
        // Total = dynamic (16·3000) + static + idle.
        assert!((out.report.energy.as_units() - (48000.0 + 30.0 + 2.5)).abs() < 1e-6);
        let b = out.report.breakdown();
        assert_eq!(b.total(), out.report.energy);
        assert!((b.dynamic.as_units() - 48000.0).abs() < 1e-6);
        // The lossless processor reports zero static/idle energy.
        let lossless = Simulator::new(&set, &cpu0, NoDvs)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(1000.0))
            .unwrap();
        assert_eq!(lossless.report.static_energy, Energy::ZERO);
        assert_eq!(lossless.report.idle_energy, Energy::ZERO);
    }

    /// With `static_power > 0` no policy runs below the critical speed:
    /// under-requests rise to it (unflagged), and every trace slice sits
    /// at or above the corresponding voltage.
    #[test]
    fn dispatch_floors_at_critical_speed() {
        struct Crawler;
        impl Policy for Crawler {
            fn name(&self) -> &str {
                "crawler"
            }
            fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
                Freq::from_cycles_per_ms(1e-6)
            }
        }
        let (set, cpu0) = motivation();
        let cpu = Processor::builder(cpu0.freq_model().clone())
            .vmin(cpu0.vmin())
            .vmax(cpu0.vmax())
            .static_power(1000.0)
            .build()
            .unwrap();
        let crit = cpu.critical_speed(set.tasks()[0].c_eff());
        assert!(crit > cpu.f_min(), "fixture must have a binding floor");
        let out = Simulator::new(&set, &cpu, Crawler)
            .with_options(SimOptions {
                record_trace: true,
                ..Default::default()
            })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(100.0))
            .unwrap();
        assert_eq!(
            out.report.saturated_dispatches, 0,
            "floor raise is unflagged"
        );
        let v_crit = cpu.volt_for_speed(crit).unwrap();
        for s in out.trace.unwrap().slices() {
            assert!(
                s.voltage >= v_crit - acs_model::units::Volt::from_volts(1e-9),
                "slice below critical speed: {s:?}"
            );
        }
    }

    /// On a discrete table whose top level sits below `vmax`, the
    /// leakage floor caps at the highest *servable* speed: dispatches
    /// stay on-table and are not counted as saturation.
    #[test]
    fn leakage_floor_stays_within_a_short_level_table() {
        use acs_power::LevelTable;
        struct Crawler;
        impl Policy for Crawler {
            fn name(&self) -> &str {
                "crawler"
            }
            fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
                Freq::from_cycles_per_ms(1e-6)
            }
        }
        let (set, _) = motivation();
        let table = LevelTable::new(
            [1.0, 2.0, 3.0]
                .iter()
                .map(|&v| Volt::from_volts(v))
                .collect(),
        )
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(1.0))
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .static_power(1e9) // continuous optimum far beyond the table
            .build()
            .unwrap();
        let out = Simulator::new(&set, &cpu, Crawler)
            .with_options(SimOptions {
                record_trace: true,
                ..Default::default()
            })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(100.0))
            .unwrap();
        assert_eq!(
            out.report.saturated_dispatches, 0,
            "the floor must not push dispatches off the table"
        );
        // Everything ran at the table's top level (3 V = 150 cyc/ms).
        for s in out.trace.unwrap().slices() {
            assert_eq!(s.voltage, Volt::from_volts(3.0), "{s:?}");
        }
    }

    /// The classic scheduling-class separator: a non-harmonic set at
    /// utilization 1 misses deadlines under RM but not under EDF (whose
    /// utilization bound is exactly 1).
    #[test]
    fn edf_schedules_full_utilization_where_rm_misses() {
        // Periods {10, 15} at f_max = 200 cyc/ms: U = 0.5 + 0.5 = 1.
        let set = TaskSet::new(vec![
            Task::builder("a", Ticks::new(10))
                .wcec(Cycles::from_cycles(1000.0))
                .build()
                .unwrap(),
            Task::builder("b", Ticks::new(15))
                .wcec(Cycles::from_cycles(1500.0))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let cpu = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap();
        assert!(acs_preempt::edf_demand_feasible(&set, cpu.f_max()));
        assert!(!acs_preempt::rm_feasible(&set, cpu.f_max()));
        let totals = acs_core::trace::wcec_totals(&set);
        let rm = Simulator::new(&set, &cpu, NoDvs)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert!(rm.report.deadline_misses > 0, "RM must miss at U = 1");
        let edf = Simulator::new(&set, &cpu, NoDvs)
            .with_class(acs_model::SchedulingClass::Edf)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert_eq!(edf.report.deadline_misses, 0, "EDF is exact at U = 1");
        // The set-level default class works the same way as the
        // explicit override.
        let tagged = set.clone().with_class(acs_model::SchedulingClass::Edf);
        let inherited = Simulator::new(&tagged, &cpu, NoDvs)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert_eq!(inherited.report, edf.report);
    }

    /// Per-frame (equal-period) sets: the EDF dispatcher degenerates to
    /// the exact RM path — identical reports and traces, for scheduled
    /// and schedule-free policies alike.
    #[test]
    fn edf_degenerates_to_rm_on_equal_periods() {
        let (set, cpu) = motivation(); // three tasks, all period 20
        let edf_set = set.clone().with_class(acs_model::SchedulingClass::Edf);
        let sched_rm = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let sched_edf = synthesize_wcs(&edf_set, &cpu, &SynthesisOptions::default()).unwrap();
        // On a per-frame set the EDF expansion *is* the RM expansion, so
        // the synthesized milestones coincide exactly.
        for (a, b) in sched_rm.milestones().iter().zip(sched_edf.milestones()) {
            assert_eq!(a.end_time, b.end_time);
            assert_eq!(a.worst_workload, b.worst_workload);
        }
        let totals = acs_core::trace::acec_totals(&set);
        type MakePolicy = fn() -> Box<dyn Policy>;
        let policies: [(&str, MakePolicy); 3] = [
            ("no-dvs", || Box::new(NoDvs)),
            ("greedy", || Box::new(GreedyReclaim)),
            ("ccrm", || Box::new(CcRm::new())),
        ];
        for (name, make) in policies {
            let run = |class, sched: &StaticSchedule| {
                let mut sim = Simulator::new(&set, &cpu, make()).with_options(SimOptions {
                    record_trace: true,
                    class: Some(class),
                    ..Default::default()
                });
                if make().needs_schedule() {
                    sim = sim.with_schedule(sched);
                }
                sim.run(&mut |tid: TaskId, _: u64| totals[tid.0]).unwrap()
            };
            let rm = run(acs_model::SchedulingClass::FixedPriorityRm, &sched_rm);
            let edf = run(acs_model::SchedulingClass::Edf, &sched_edf);
            assert_eq!(rm.report, edf.report, "{name}: reports diverge");
            assert_eq!(
                rm.trace.unwrap().slices(),
                edf.trace.unwrap().slices(),
                "{name}: traces diverge"
            );
        }
        // A class-mismatched schedule is rejected loudly rather than
        // silently voiding the worst-case guarantee.
        let err = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched_edf)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap_err();
        assert!(
            matches!(&err, SimError::ScheduleMismatch { reason } if reason.contains("edf")),
            "{err}"
        );
    }

    /// Preemptions are counted as displacements of an unfinished job:
    /// the preemptive fixture's `lo` task is split around `hi`'s
    /// release.
    #[test]
    fn preemptions_counted() {
        let (set, cpu) = preemptive_set();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::wcec_totals(&set);
        let out = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        assert!(out.report.preemptions >= 1, "{:?}", out.report);
        // A single-task set can never preempt.
        let solo = TaskSet::new(vec![Task::builder("only", Ticks::new(10))
            .wcec(Cycles::from_cycles(100.0))
            .build()
            .unwrap()])
        .unwrap();
        let out = Simulator::new(&solo, &cpu, NoDvs)
            .with_options(SimOptions {
                hyper_periods: 5,
                ..Default::default()
            })
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(100.0))
            .unwrap();
        assert_eq!(out.report.preemptions, 0);
    }

    /// Speeds below `f_min` rise to `f_min` (the processor cannot run
    /// slower) without being counted as saturation.
    #[test]
    fn under_requests_rise_to_f_min() {
        struct Crawler;
        impl Policy for Crawler {
            fn name(&self) -> &str {
                "crawler"
            }
            fn on_dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Freq {
                Freq::from_cycles_per_ms(1e-6)
            }
        }
        let (set, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, Crawler)
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(100.0)) // light load: vmin is safe
            .unwrap();
        assert_eq!(out.report.saturated_dispatches, 0);
        // Everything ran at vmin: E = c_eff · vmin² · cycles.
        let vmin = cpu.vmin().as_volts();
        let expected: f64 = set
            .tasks()
            .iter()
            .map(|t| t.c_eff() * vmin * vmin * 100.0)
            .sum();
        assert!((out.report.energy.as_units() - expected).abs() < 1e-6);
    }

    /// Driving a [`SteppedRun`] round by round produces exactly what
    /// `run` returns — same report (including event stats), same trace.
    #[test]
    fn stepped_run_matches_run() {
        let (set, cpu) = preemptive_set();
        let sched = synthesize_acs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let totals = acs_core::trace::acec_totals(&set);
        let options = SimOptions {
            hyper_periods: 3,
            record_trace: true,
            ..Default::default()
        };
        let baseline = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(options.clone())
            .run(&mut |tid: TaskId, _: u64| totals[tid.0])
            .unwrap();
        let mut sim = Simulator::new(&set, &cpu, GreedyReclaim)
            .with_schedule(&sched)
            .with_options(options);
        let mut draw = |tid: TaskId, _| totals[tid.0];
        let mut stepped = sim.stepped(&mut draw).unwrap();
        let mut clock = f64::NEG_INFINITY;
        while let Some(now) = stepped.clock_ms() {
            assert!(now >= clock, "clock moved backwards: {now} < {clock}");
            clock = now;
            if !stepped.step().unwrap() {
                break;
            }
        }
        assert!(stepped.is_finished());
        let out = stepped.finish().unwrap();
        assert_eq!(out.report, baseline.report);
        assert_eq!(
            out.trace.unwrap().slices(),
            baseline.trace.unwrap().slices()
        );
    }

    /// The event engine surfaces its queue high-water mark and
    /// handled-event count, and they scale with the horizon.
    #[test]
    fn event_stats_surface_in_report() {
        let (set, cpu) = preemptive_set();
        let run = |hps: u64| {
            Simulator::new(&set, &cpu, NoDvs)
                .with_options(SimOptions {
                    hyper_periods: hps,
                    ..Default::default()
                })
                .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(50.0))
                .unwrap()
                .report
        };
        let one = run(1);
        // Every job releases through the queue, and every slice is a
        // handled dispatch event.
        assert!(one.event_queue_peak >= 1);
        assert!(one.events_handled >= set.total_instances());
        let five = run(5);
        assert_eq!(five.events_handled, 5 * one.events_handled);
        // The queue is rebuilt per hyper-period: the peak is a max,
        // not a sum.
        assert_eq!(five.event_queue_peak, one.event_queue_peak);
    }

    fn task(name: &str, period: u64, wcec: f64) -> Task {
        Task::builder(name, Ticks::new(period))
            .wcec(Cycles::from_cycles(wcec))
            .build()
            .unwrap()
    }

    /// Two tasks, each needing a whole core at f_max: one core misses,
    /// two cores meet every deadline running both at once, and neither
    /// job ever moves.
    #[test]
    fn overload_heals_on_two_cores() {
        let set = TaskSet::new(vec![task("a", 10, 2000.0), task("b", 10, 2000.0)]).unwrap();
        let (_, cpu) = motivation();
        let run = |cores| {
            Simulator::new(&set, &cpu, NoDvs)
                .with_cores(cores)
                .run(&mut |tid: TaskId, _: u64| set.tasks()[tid.0].wcec())
                .unwrap()
        };
        assert!(!run(1).report.all_deadlines_met());
        let two = run(2);
        assert!(two.report.all_deadlines_met());
        assert_eq!(two.report.jobs_completed, 2);
        assert_eq!(
            two.report.migrations, 0,
            "independent full-load jobs never move"
        );
        assert_eq!(two.cores.len(), 2);
        assert!(
            two.report.events_handled > 0,
            "global runs count their events"
        );
    }

    /// `t3 -> t1` on two cores: even with a core free, no slice of `t1`
    /// starts before `t3` completes.
    #[test]
    fn predecessor_gate_orders_execution_across_cores() {
        let set = TaskSet::new(vec![
            task("t1", 20, 1000.0),
            task("t2", 20, 1000.0),
            task("t3", 20, 1000.0),
        ])
        .unwrap();
        let graph = acs_model::TaskGraph::new(&set, vec![("t3", "t1")]).unwrap();
        let set = set.with_graph(graph);
        let (_, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .with_cores(2)
            .with_options(SimOptions {
                record_trace: true,
                ..SimOptions::default()
            })
            .run(&mut |tid: TaskId, _: u64| set.tasks()[tid.0].wcec())
            .unwrap();
        assert!(out.report.all_deadlines_met());
        assert!(out.trace.is_none(), "multi-core traces are per core");
        let slices = || {
            out.cores
                .iter()
                .flat_map(|c| c.trace.as_ref().expect("trace recorded").slices())
        };
        let pred_end = slices()
            .filter(|s| s.task == TaskId(2))
            .map(|s| s.end.as_ms())
            .fold(0.0f64, f64::max);
        for s in slices().filter(|s| s.task == TaskId(0)) {
            assert!(
                s.start.as_ms() >= pred_end - 1e-9,
                "successor slice at {} precedes predecessor end {pred_end}",
                s.start.as_ms()
            );
        }
    }

    /// EDF, 2 cores, fmax = 200 cycles/ms. First hyper-period: u (d=8)
    /// takes core 0 and p0 (d=10) core 1; q0 (d=12) follows p0 on core
    /// 1, v (d=16) follows u on core 0. Core 1 frees first (q0 ends at
    /// 10, v holds core 0 until 14), so c (d=40) starts on core 1. At
    /// t=20 the fresh p1/q1 pair displaces c: p1 lands on core 0, q1 on
    /// core 1. p1 (2 ms) frees core 0 while q1 (8 ms) still holds c's
    /// old core 1 — c resumes on core 0. Exactly one migration,
    /// attributed to the arrival core; the displacement itself is a
    /// preemption on core 1.
    #[test]
    fn preempted_job_migrates_to_a_freed_core() {
        let mk = |n: &str, period: u64, d: u64, wcec: f64| {
            Task::builder(n, Ticks::new(period))
                .deadline(Ticks::new(d))
                .wcec(Cycles::from_cycles(wcec))
                .build()
                .unwrap()
        };
        let set = TaskSet::new(vec![
            mk("p", 20, 10, 400.0),
            mk("q", 20, 12, 1600.0),
            mk("u", 40, 8, 1200.0),
            mk("v", 40, 16, 1600.0),
            mk("c", 40, 40, 3000.0),
        ])
        .unwrap()
        .with_class(SchedulingClass::Edf);
        let (_, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, NoDvs)
            .with_cores(2)
            .run(&mut |tid: TaskId, _: u64| set.tasks()[tid.0].wcec())
            .unwrap();
        let r = &out.report;
        assert_eq!(r.jobs_completed as u64, set.total_instances());
        assert!(r.all_deadlines_met(), "lateness {}", r.worst_lateness_ms);
        assert_eq!(r.migrations, 1, "c moves core 1 to core 0 exactly once");
        assert_eq!(
            out.cores[0].report.migrations, 1,
            "counted on the arrival core"
        );
        assert!(
            out.cores[1].report.preemptions >= 1,
            "the p1/q1 pair displaces c"
        );
    }

    /// A multi-core run is schedule-free and periodic: it rejects a
    /// policy that needs a schedule, a static schedule and an arrival
    /// source, and every run rejects zero cores. Each error names its
    /// cause.
    #[test]
    fn multi_core_runs_reject_what_global_dispatch_cannot_honor() {
        let (set, cpu) = motivation();
        let sched = synthesize_wcs(&set, &cpu, &SynthesisOptions::default()).unwrap();
        let draw = &mut |_, _| Cycles::from_cycles(100.0);
        let cause = |err: SimError| match err {
            SimError::Cores { cores, reason } => (cores, reason),
            other => panic!("expected a core-count error, got {other}"),
        };
        let (cores, reason) = cause(
            Simulator::new(&set, &cpu, GreedyReclaim)
                .with_cores(2)
                .run(draw)
                .unwrap_err(),
        );
        assert_eq!(cores, 2);
        assert!(
            reason.contains("greedy requires a static schedule"),
            "{reason}"
        );
        let (_, reason) = cause(
            Simulator::new(&set, &cpu, NoDvs)
                .with_schedule(&sched)
                .with_cores(2)
                .run(draw)
                .unwrap_err(),
        );
        assert!(reason.contains("static schedule"), "{reason}");
        let (_, reason) = cause(
            Simulator::new(&set, &cpu, NoDvs)
                .with_arrivals(Box::new(acs_trace::Sporadic::new(&set, 1)))
                .with_cores(3)
                .run(draw)
                .unwrap_err(),
        );
        assert!(reason.contains("arrival source"), "{reason}");
        let (cores, reason) = cause(
            Simulator::new(&set, &cpu, NoDvs)
                .with_cores(0)
                .run(draw)
                .unwrap_err(),
        );
        assert_eq!(cores, 0);
        assert!(reason.contains("at least one core"), "{reason}");
    }

    /// One `CcRm` instance serves every core: it sees the whole set's
    /// releases and completions.
    #[test]
    fn ccrm_runs_globally_with_shared_state() {
        let set = TaskSet::new(vec![
            task("a", 10, 400.0),
            task("b", 20, 600.0),
            task("c", 20, 500.0),
        ])
        .unwrap();
        let (_, cpu) = motivation();
        let out = Simulator::new(&set, &cpu, CcRm::default())
            .with_cores(2)
            .with_options(SimOptions {
                hyper_periods: 3,
                ..SimOptions::default()
            })
            .run(&mut |tid: TaskId, _: u64| {
                Cycles::from_cycles(set.tasks()[tid.0].wcec().as_cycles() * 0.5)
            })
            .unwrap();
        assert!(out.report.all_deadlines_met());
        assert_eq!(out.report.jobs_completed as u64, 3 * set.total_instances());
        assert_eq!(out.report.hyper_periods, 3);
    }
}
