//! The pre-event-queue chunk-scan engine, kept verbatim behind the
//! `legacy-engine` cargo feature **solely as the differential-test
//! oracle** (see `docs/ENGINE.md` and `tests/engine_differential.rs`).
//!
//! The loop below is the engine exactly as it shipped before the
//! discrete-event rewrite: every round re-scans all jobs for zero
//! completions, chunk maintenance, dispatch selection and the next
//! wakeup — `O(jobs)` per event. The event engine must reproduce its
//! output bit-for-bit on periodic sets; this module is what it is
//! measured against. Do not "fix" or optimize it: its value is that it
//! does not change.
//!
//! Two entry points:
//!
//! * [`Simulator::run_legacy`] — run one simulator on the oracle.
//! * [`set_legacy_engine`] — a process-wide default that reroutes every
//!   `Simulator::run` through the oracle, so whole campaigns (which
//!   construct their own simulators internally) can be replayed on it.
//!   Differential tests serialize toggled sections with a lock.

use crate::engine::{fire_boundary, ChunkPlan, Job, RunOutput, SimOptions, Simulator};
use crate::error::SimError;
use crate::exec_trace::{ExecutionTrace, Slice};
use crate::policy::{BoundaryEvent, DispatchContext, Policy};
use crate::report::SimReport;
use acs_core::StaticSchedule;
use acs_model::units::{Cycles, Energy, Freq, Time, TimeSpan};
use acs_model::{SchedulingClass, TaskId, TaskSet};
use acs_power::Processor;
use std::sync::atomic::{AtomicBool, Ordering};

static LEGACY_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequent [`Simulator::run`] in this process execute on
/// the legacy chunk-scan oracle (`true`) or the event engine (`false`,
/// the default). Process-global so campaign runners — which build their
/// simulators internally — can be replayed on the oracle without any
/// API plumbing. Tests toggling this must serialize against each other.
pub fn set_legacy_engine(on: bool) {
    LEGACY_DEFAULT.store(on, Ordering::SeqCst);
}

/// `true` while [`set_legacy_engine`] has routed runs to the oracle.
pub fn legacy_engine_enabled() -> bool {
    LEGACY_DEFAULT.load(Ordering::SeqCst)
}

impl Simulator<'_> {
    /// Runs the simulation on the legacy chunk-scan engine (the
    /// differential-test oracle) instead of the event engine. Same
    /// contract as [`Simulator::run`], except the report's
    /// `events_handled`/`event_queue_peak` stay 0 — the oracle has no
    /// event queue.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_legacy(
        &mut self,
        workload: &mut dyn FnMut(TaskId, u64) -> Cycles,
    ) -> Result<RunOutput, SimError> {
        let plans = self.build_plans()?;
        let mut report = SimReport::empty(self.set.len());
        let mut trace = None;
        let instances_per_hyper: u64 = self.set.total_instances();
        let mut abs_base = 0u64;
        let stats_before = self.policy.solver_stats();
        for h in 0..self.options.hyper_periods {
            let record = self.options.record_trace && h == 0;
            self.policy.on_start(self.set, self.cpu);
            let (hp_report, hp_trace) = run_one_chunk_scan(
                self.set,
                self.cpu,
                self.schedule,
                &self.options,
                &plans,
                abs_base,
                workload,
                record,
                self.policy.as_mut(),
            )?;
            report.absorb(&hp_report);
            if record {
                trace = hp_trace;
            }
            abs_base += instances_per_hyper;
        }
        // Attribute this run's share of the policy's cumulative solver
        // counters (policies persist across consecutive `run` calls).
        if let Some(after) = self.policy.solver_stats() {
            let delta = after.delta_since(stats_before.unwrap_or_default());
            report.solver_lookups = delta.lookups;
            report.solver_cache_hits = delta.cache_hits;
            report.boundary_resolves = delta.resolves;
            report.resolves_adopted = delta.adopted;
            report.warm_carry_hits = delta.warm_carry_hits;
        }
        Ok(RunOutput {
            report,
            trace,
            cores: Vec::new(),
        })
    }
}

/// Simulates one hyper-period with the historical chunk-scan loop.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_one_chunk_scan(
    set: &TaskSet,
    cpu: &Processor,
    schedule: Option<&StaticSchedule>,
    options: &SimOptions,
    plans: &[Vec<Vec<ChunkPlan>>],
    abs_base: u64,
    workload: &mut dyn FnMut(TaskId, u64) -> Cycles,
    record: bool,
    policy: &mut dyn Policy,
) -> Result<(SimReport, Option<ExecutionTrace>), SimError> {
    const EPS: f64 = 1e-9;
    let has_schedule = schedule.is_some();
    let wants_boundaries = policy.wants_boundaries();
    let class = options.class.unwrap_or_else(|| set.class());
    // Completion threshold in cycles (see `engine::CYCLE_EPS` for the
    // rationale; the value must match the event engine's exactly).
    const CYCLE_EPS: f64 = 1e-2;
    let mut report = SimReport::empty(set.len());
    report.hyper_periods = 1;
    let mut trace = record.then(ExecutionTrace::new);
    // Leakage-aware dispatch floors, one per task: no request — from any
    // policy — executes below max(f_min, critical speed). With zero
    // static power this degenerates to the historical f_min floor.
    let floors: Vec<f64> = set
        .tasks()
        .iter()
        .map(|t| cpu.floor_speed(t.c_eff()).as_cycles_per_ms())
        .collect();
    let idle_power = cpu.idle_power();
    let charge_idle = |report: &mut SimReport, span_ms: f64| {
        report.idle_time += TimeSpan::from_ms(span_ms);
        if idle_power > 0.0 {
            let e = Energy::from_units(idle_power * span_ms);
            report.idle_energy += e;
            report.energy += e;
        }
    };

    // ---- job construction & workload draws ----
    let mut jobs: Vec<Job> = Vec::with_capacity(set.total_instances() as usize);
    let mut abs_counter = abs_base;
    for (tid, task) in set.iter() {
        for inst in 0..set.instances_of(tid) {
            let release = (inst * task.period().get()) as f64;
            let drawn = workload(tid, abs_counter);
            abs_counter += 1;
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
                report.clamped_draws += 1;
                wcec
            } else {
                raw
            };
            // The schedule's budgets are the effective worst case;
            // clamp to their sum so repair rounding cannot leave
            // un-budgeted dust behind.
            let budget_sum: f64 = plans[tid.0][inst as usize].iter().map(|c| c.budget).sum();
            if has_schedule {
                actual = actual.min(budget_sum);
            }
            let plan0 = plans[tid.0][inst as usize][0];
            jobs.push(Job {
                task: tid.0,
                instance_in_hyper: inst,
                release_ms: release,
                deadline_ms: release + task.deadline().get() as f64,
                remaining: actual,
                executed: 0.0,
                chunk: 0,
                chunk_budget_left: plan0.budget,
                done: false,
                // The chunk-scan oracle predates arrival sources and
                // only runs the periodic path.
                own_plan: None,
                // The shared `Job` struct carries the event engine's
                // lazy-maintenance stamp; the chunk-scan loop maintains
                // eagerly and never reads it.
                maintained_at: f64::NEG_INFINITY,
                // Single-core only: no core placement.
                last_core: None,
            });
        }
    }
    // The hyper-period starts: schedule-aware policies get the pristine
    // boundary state before anything executes.
    if wants_boundaries {
        fire_boundary(policy, set, cpu, schedule, &jobs, 0.0, BoundaryEvent::Start);
    }

    // Release events, sorted by time (job index attached).
    let mut releases: Vec<(f64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.release_ms, i))
        .collect();
    releases.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(jobs[a.1].task.cmp(&jobs[b.1].task))
    });

    let mut rel_ptr = 0usize;
    let mut t = 0.0f64;
    let mut last_voltage: Option<f64> = None;
    // Job index of the most recent dispatch, for preemption counting: a
    // dispatch of a *different* job while this one still has work is a
    // displacement (both classes use the same rule, so RM/EDF
    // preemption counts are directly comparable).
    let mut last_dispatched: Option<usize> = None;
    let overhead = cpu.overhead();

    loop {
        // Admit releases (drives policy utilization bookkeeping).
        while rel_ptr < releases.len() && releases[rel_ptr].0 <= t + EPS {
            let task = TaskId(jobs[releases[rel_ptr].1].task);
            policy.on_release(task, set, cpu);
            rel_ptr += 1;
            if wants_boundaries {
                fire_boundary(
                    policy,
                    set,
                    cpu,
                    schedule,
                    &jobs,
                    t,
                    BoundaryEvent::Release(task),
                );
            }
        }

        // Jobs with zero actual workload complete instantly.
        for i in 0..jobs.len() {
            let j = &mut jobs[i];
            if !j.done && j.release_ms <= t + EPS && j.remaining <= CYCLE_EPS {
                j.done = true;
                report.jobs_completed += 1;
                let (task, executed) = (TaskId(j.task), j.executed);
                policy.on_completion(task, Cycles::from_cycles(executed), set, cpu);
                if wants_boundaries {
                    fire_boundary(
                        policy,
                        set,
                        cpu,
                        schedule,
                        &jobs,
                        t,
                        BoundaryEvent::Completion(task),
                    );
                }
            }
        }
        // ---- chunk maintenance for all released jobs ----
        // Advancing here (not just for the dispatched job) keeps the
        // throttle state of every job current before eligibility is
        // decided.
        for j in jobs.iter_mut() {
            if j.done || j.release_ms > t + EPS || j.remaining <= CYCLE_EPS {
                continue;
            }
            let plan = &plans[j.task][j.instance_in_hyper as usize];
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
        }
        // A released job is throttled while its current chunk budget
        // is spent and its next chunk's window has not opened.
        let throttled = |j: &Job| {
            let plan = &plans[j.task][j.instance_in_hyper as usize];
            j.chunk_budget_left <= EPS && j.chunk + 1 < plan.len()
        };
        // The eligible job the scheduling class picks. RM: the task
        // index *is* the priority; among instances of one task, the
        // earlier release first. EDF: earliest absolute deadline, ties
        // broken by task index then release — on per-frame
        // (equal-period) sets every ready job shares one deadline, so
        // the EDF order collapses to the exact RM order.
        let ready = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                !j.done && j.release_ms <= t + EPS && j.remaining > CYCLE_EPS && !throttled(j)
            })
            .min_by(|(_, a), (_, b)| {
                let by_deadline = match class {
                    SchedulingClass::FixedPriorityRm => std::cmp::Ordering::Equal,
                    SchedulingClass::Edf => a.deadline_ms.total_cmp(&b.deadline_ms),
                };
                by_deadline
                    .then(a.task.cmp(&b.task))
                    .then(a.release_ms.total_cmp(&b.release_ms))
            })
            .map(|(i, _)| i);
        // The earliest instant a throttled job wakes up.
        let next_wakeup = jobs
            .iter()
            .filter(|j| {
                !j.done && j.release_ms <= t + EPS && j.remaining > CYCLE_EPS && throttled(j)
            })
            .map(|j| plans[j.task][j.instance_in_hyper as usize][j.chunk + 1].start_ms)
            .fold(f64::INFINITY, f64::min);
        let Some(job_idx) = ready else {
            // Idle until the next release or throttle expiry.
            let next_release = releases
                .get(rel_ptr)
                .map(|&(r, _)| r)
                .unwrap_or(f64::INFINITY);
            let next = next_release.min(next_wakeup);
            if next.is_finite() {
                charge_idle(&mut report, next - t);
                t = next;
                continue;
            }
            // Shut down for the rest of the hyper-period (still charged
            // at `idle_power`, which models a platform without
            // power-gating; the paper's processor has it at zero).
            let h = set.hyper_period().get() as f64;
            if t < h {
                charge_idle(&mut report, h - t);
            }
            break;
        };
        let plan = &plans[jobs[job_idx].task][jobs[job_idx].instance_in_hyper as usize];
        if let Some(prev) = last_dispatched {
            if prev != job_idx && !jobs[prev].done && jobs[prev].remaining > CYCLE_EPS {
                report.preemptions += 1;
            }
        }
        last_dispatched = Some(job_idx);

        // ---- dispatch ----
        let (task, chunk, budget_left, remaining) = {
            let j = &jobs[job_idx];
            (j.task, j.chunk, j.chunk_budget_left, j.remaining)
        };
        let cp = plan[chunk];
        let ctx = DispatchContext {
            set,
            cpu,
            task: TaskId(task),
            now: Time::from_ms(t),
            chunk_end: Time::from_ms(cp.end_ms),
            chunk_budget_remaining: Cycles::from_cycles(budget_left),
            static_speed: Freq::from_cycles_per_ms(cp.static_speed),
            sub: cp.sub,
        };
        let (speed, clamped) = cpu.clamp_speed(policy.on_dispatch(&ctx));
        // Leakage floor: under-requests rise (unflagged, like the f_min
        // clamp — running faster than asked never endangers deadlines)
        // to the task's critical speed.
        let speed = speed.max(Freq::from_cycles_per_ms(floors[task]));
        // The clamp keeps `speed` realizable by the *continuous*
        // model; a discrete level table whose highest level sits
        // below `vmax` can still fail to serve it, in which case the
        // engine saturates at `vmax` (the historical fallback). Both
        // paths are one saturated dispatch — never double-counted.
        let (v, table_saturated) = match cpu.dispatch_voltage(speed) {
            Ok(v) => (v, false),
            Err(_) => (cpu.vmax(), true),
        };
        if clamped || table_saturated {
            report.saturated_dispatches += 1;
        }
        let f_actual = cpu
            .freq_at(v)
            .map_err(|_| SimError::StalledProcessor)?
            .as_cycles_per_ms();
        if f_actual <= 1e-12 {
            return Err(SimError::StalledProcessor);
        }

        // Voltage transition accounting (dead time + energy).
        let changed = last_voltage
            .map(|lv| (lv - v.as_volts()).abs() > 1e-9)
            .unwrap_or(false);
        if changed {
            report.voltage_switches += 1;
            report.energy += overhead.energy;
            t += overhead.time.as_ms();
        }
        last_voltage = Some(v.as_volts());

        // ---- execute until the next event ----
        let until_complete = remaining / f_actual;
        // A spent last chunk (possible only with inconsistent custom
        // schedules) no longer gates execution — run the remainder.
        let until_budget = if budget_left > EPS && budget_left < remaining {
            budget_left / f_actual
        } else {
            f64::INFINITY
        };
        let until_release = releases
            .get(rel_ptr)
            .map(|&(next, _)| (next - t).max(0.0))
            .unwrap_or(f64::INFINITY);
        // A throttled higher-priority job waking up preempts too.
        let until_wakeup = if next_wakeup.is_finite() {
            (next_wakeup - t).max(0.0)
        } else {
            f64::INFINITY
        };
        let dt = until_complete
            .min(until_budget)
            .min(until_release)
            .min(until_wakeup);
        // Progress guard: a zero-length slice can only come from a
        // release exactly at `t`, which the admission loop absorbs.
        let dt = dt.max(0.0);
        let cycles = f_actual * dt;

        {
            let j = &mut jobs[job_idx];
            j.remaining = (j.remaining - cycles).max(0.0);
            j.chunk_budget_left -= cycles;
            j.executed += cycles;
        }
        let c_eff = set.tasks()[task].c_eff();
        let e = cpu.energy(c_eff, v, Cycles::from_cycles(cycles));
        report.energy += e;
        report.per_task_energy[task] += e;
        let leak = cpu.static_power_at(v);
        if leak > 0.0 {
            let e_static = Energy::from_units(leak * dt);
            report.static_energy += e_static;
            report.energy += e_static;
        }
        report.busy_time += TimeSpan::from_ms(dt);
        if let Some(tr) = trace.as_mut() {
            if dt > 0.0 {
                tr.push(Slice {
                    task: TaskId(task),
                    instance: jobs[job_idx].instance_in_hyper,
                    start: Time::from_ms(t),
                    end: Time::from_ms(t + dt),
                    voltage: v,
                });
            }
        }
        t += dt;

        // ---- completion ----
        let j = &mut jobs[job_idx];
        if j.remaining <= CYCLE_EPS {
            j.done = true;
            report.jobs_completed += 1;
            report.worst_lateness_ms = report.worst_lateness_ms.max(t - j.deadline_ms);
            if t > j.deadline_ms + options.deadline_tol_ms {
                report.deadline_misses += 1;
            }
            let (ctask, executed) = (TaskId(j.task), j.executed);
            policy.on_completion(ctask, Cycles::from_cycles(executed), set, cpu);
            if wants_boundaries {
                fire_boundary(
                    policy,
                    set,
                    cpu,
                    schedule,
                    &jobs,
                    t,
                    BoundaryEvent::Completion(ctask),
                );
            }
        }
    }

    Ok((report, trace))
}
