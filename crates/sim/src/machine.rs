//! Machine placements and partitioned machine runs on N identical cores.
//!
//! The paper's machinery (offline synthesis, the event-driven engine,
//! the online [`Policy`] API) is single-processor. A [`Placement`]
//! lifts it to N identical cores in one of two ways.
//!
//! [`Placement::Partitioned`] pins tasks to cores, after Nélis et al.
//! (power-aware scheduling on identical multiprocessors):
//!
//! 1. [`acs_preempt::partition()`] assigns the task set to cores with
//!    a bin-packing heuristic over worst-case utilizations
//!    ([`PartitionHeuristic`](acs_preempt::PartitionHeuristic):
//!    first-fit, best-fit or worst-fit decreasing);
//! 2. each core runs the unchanged single-core engine and its own fresh
//!    policy instance ([`MachineRun`]);
//! 3. the per-core reports fold into the same [`RunOutput`] a global
//!    run returns, whose [`breakdown`](SimReport::breakdown) splits
//!    dynamic vs static vs idle energy (leakage modeling lives in
//!    `acs-power`).
//!
//! Partitioner choice matters for energy: worst-fit decreasing spreads
//! load thin, handing every core more slack for DVS to reclaim, while
//! best-fit packs cores full and leaves whole cores idle (cheap on
//! platforms that power-gate, expensive when `idle_power > 0`). The
//! `acs-runtime` campaign axes (`cores`, `partitioners`) sweep exactly
//! this trade-off.
//!
//! [`Placement::Global`] keeps one shared ready queue and runs the `m`
//! most eligible jobs on the `m` cores (RM priority order or EDF
//! absolute-deadline order, per `SchedulingClass`), migrating jobs when
//! the eligibility order forces it. That is the event engine itself on
//! `m` cores ([`Simulator::with_cores`]); see `docs/ENGINE.md` for its
//! placement, migration and preemption rules. Global placement is the
//! only way to run precedence-constrained sets
//! ([`acs_model::TaskGraph`]) on multiple cores: precedence edges
//! cannot cross a partition, and [`acs_preempt::partition()`] rejects
//! such sets up front.

use crate::engine::{CoreOutput, RunOutput, SimOptions, Simulator};
use crate::error::SimError;
use crate::policy::Policy;
use crate::report::SimReport;
use crate::workload::WorkloadSource;
use acs_core::StaticSchedule;
use acs_model::units::{Energy, TimeSpan};
use acs_model::TaskSet;
use acs_power::Processor;
use acs_preempt::Partition;
use acs_trace::ArrivalSource;

/// How jobs are mapped onto the cores of a multiprocessor machine.
///
/// ```
/// use acs_sim::Placement;
///
/// assert_eq!(Placement::Global.label(), "global");
/// assert_eq!("partitioned".parse(), Ok(Placement::Partitioned));
/// assert!("clustered".parse::<Placement>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Placement {
    /// Every task is pinned to one core by a bin-packing heuristic
    /// ([`acs_preempt::partition()`]); cores run independent
    /// single-core simulations ([`MachineRun`]) and jobs never migrate.
    Partitioned,
    /// One shared ready queue; at every scheduling event the `m` most
    /// eligible jobs (RM priority or EDF deadline order) run on the
    /// `m` cores, migrating when necessary ([`Simulator::with_cores`]).
    Global,
}

impl Placement {
    /// Both placements, in canonical order.
    pub const ALL: [Placement; 2] = [Placement::Partitioned, Placement::Global];

    /// The short label used in scenarios, reports and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            Placement::Partitioned => "partitioned",
            Placement::Global => "global",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partitioned" => Ok(Placement::Partitioned),
            "global" => Ok(Placement::Global),
            other => Err(format!(
                "unknown placement `{other}` (known: partitioned, global)"
            )),
        }
    }
}

/// Per-core arrival-source factory passed to [`MachineRun::run`]:
/// `(core, core's task set)` → `Some(source)` to drive that core from
/// generated/recorded releases, `None` for the classic periodic grid.
pub type CoreSourceFactory<'a> = dyn FnMut(usize, &TaskSet) -> Option<Box<dyn ArrivalSource>> + 'a;

/// One machine run: the partition, the per-core hardware (identical
/// cores), the per-core schedules and the simulation options.
///
/// `options.hyper_periods` counts **machine** hyper-periods; each core
/// simulates `hyper_periods × machine_hyper_period / core_hyper_period`
/// of its own hyper-periods, so every core covers exactly the same
/// wall-clock horizon.
///
/// ```
/// use acs_model::{Task, TaskId, TaskSet, units::{Cycles, Energy, Ticks, Volt}};
/// use acs_power::{FreqModel, Processor};
/// use acs_preempt::{partition, PartitionHeuristic};
/// use acs_sim::{MachineRun, NoDvs, SimOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TaskSet::new(vec![
///     Task::builder("a", Ticks::new(10)).wcec(Cycles::from_cycles(1000.0)).build()?,
///     Task::builder("b", Ticks::new(20)).wcec(Cycles::from_cycles(900.0)).build()?,
/// ])?;
/// let cpu = Processor::builder(FreqModel::linear(50.0)?)
///     .vmin(Volt::from_volts(0.5))
///     .vmax(Volt::from_volts(4.0))
///     .static_power(5.0)
///     .build()?;
///
/// let p = partition(&set, cpu.f_max(), 2, PartitionHeuristic::WorstFitDecreasing)?;
/// assert_eq!(p.busy_cores(), 2);
///
/// let out = MachineRun {
///     partition: &p,
///     cpu: &cpu,
///     schedules: None,
///     options: SimOptions::default(),
/// }
/// .run(
///     || Box::new(NoDvs),
///     |_core, _set| |_task: TaskId, _abs: u64| Cycles::from_cycles(400.0),
///     &mut |_core, _set| None,
/// )?;
/// assert_eq!(out.cores.len(), 2);
/// assert!(out.report.all_deadlines_met());
/// let split = out.report.breakdown();
/// assert!(split.static_ > Energy::ZERO);
/// assert_eq!(split.total(), out.report.energy);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MachineRun<'a> {
    /// The task-to-core assignment to execute.
    pub partition: &'a Partition,
    /// The (identical) per-core processor.
    pub cpu: &'a Processor,
    /// One static schedule per **non-empty** core, in core order —
    /// `None` for schedule-free policies.
    pub schedules: Option<&'a [StaticSchedule]>,
    /// Simulation options; `hyper_periods` counts machine hyper-periods.
    pub options: SimOptions,
}

impl MachineRun<'_> {
    /// Runs every core and folds them into one machine output, the same
    /// [`RunOutput`] a global run returns: `report` sums the cores in
    /// core order (`hyper_periods` counts machine hyper-periods,
    /// `per_task_energy` is empty since task identity is per core), and
    /// `cores` holds one [`CoreOutput`] per core, empty cores included
    /// (an idle-only report: no jobs, `idle_energy = P_idle × horizon`).
    /// Each callback is called once per **non-empty** core, the last two
    /// with the core index and that core's task set:
    ///
    /// * `make_policy` returns the core's fresh policy (policies carry
    ///   state, so each core needs its own instance);
    /// * `make_workload` returns the core's [`WorkloadSource`], drawn by
    ///   task id *within that core's set* and the absolute instance
    ///   index of the core's run — give every core an independent,
    ///   deterministic stream;
    /// * `make_arrivals` returns `Some(source)` to drive the core from
    ///   generated or recorded releases (see `Simulator::with_arrivals`),
    ///   `None` for the classic periodic grid.
    ///
    /// Key any randomness by `(seed, set, core)` — never by call order —
    /// so machine results stay deterministic at any thread count.
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleCount`] when `schedules` does not line up
    /// with the non-empty cores; [`SimError::Core`] when a core's
    /// simulation fails (the first failing core aborts the machine).
    pub fn run<S: WorkloadSource>(
        &self,
        mut make_policy: impl FnMut() -> Box<dyn Policy>,
        mut make_workload: impl FnMut(usize, &TaskSet) -> S,
        make_arrivals: &mut CoreSourceFactory<'_>,
    ) -> Result<RunOutput, SimError> {
        let busy = self.partition.busy_cores();
        if let Some(schedules) = self.schedules {
            if schedules.len() != busy {
                return Err(SimError::ScheduleCount {
                    got: schedules.len(),
                    expected: busy,
                });
            }
        }
        let horizon_ms =
            self.options.hyper_periods as f64 * self.partition.machine_hyper_period.get() as f64;
        let mut cores = Vec::with_capacity(self.partition.cores.len());
        let mut sched_idx = 0usize;
        for (core, assignment) in self.partition.cores.iter().enumerate() {
            let Some(set) = &assignment.set else {
                // An empty core only draws idle power over the horizon.
                let e = Energy::from_units(self.cpu.idle_power() * horizon_ms);
                cores.push(CoreOutput {
                    report: SimReport {
                        hyper_periods: self.options.hyper_periods,
                        idle_time: TimeSpan::from_ms(horizon_ms),
                        idle_energy: e,
                        energy: e,
                        ..SimReport::default()
                    },
                    trace: None,
                });
                continue;
            };
            let mut sim = Simulator::new(set, self.cpu, make_policy()).with_options(SimOptions {
                hyper_periods: self.options.hyper_periods * self.partition.hyper_multiplier(core),
                ..self.options
            });
            if let Some(schedules) = self.schedules {
                sim = sim.with_schedule(&schedules[sched_idx]);
            }
            sched_idx += 1;
            if let Some(arrivals) = make_arrivals(core, set) {
                sim = sim.with_arrivals(arrivals);
            }
            let out = sim
                .run(&mut make_workload(core, set))
                .map_err(|e| SimError::Core {
                    core,
                    error: Box::new(e),
                })?;
            cores.push(CoreOutput {
                report: out.report,
                trace: out.trace,
            });
        }
        let mut report = SimReport::empty(0);
        for core in &cores {
            report.absorb(&core.report);
        }
        report.hyper_periods = self.options.hyper_periods;
        Ok(RunOutput {
            report,
            trace: None,
            cores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoDvs;
    use acs_model::units::{Cycles, Ticks, Volt};
    use acs_model::{Task, TaskId, TaskSet};
    use acs_power::FreqModel;
    use acs_preempt::{partition, PartitionHeuristic};

    fn set() -> TaskSet {
        let mk = |n: &str, period: u64, wcec: f64| {
            Task::builder(n, Ticks::new(period))
                .wcec(Cycles::from_cycles(wcec))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![
            mk("a", 10, 1000.0),
            mk("b", 20, 800.0),
            mk("c", 20, 600.0),
        ])
        .unwrap()
    }

    fn cpu(idle_power: f64) -> Processor {
        Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .idle_power(idle_power)
            .build()
            .unwrap()
    }

    #[test]
    fn machine_energy_equals_sum_of_cores_and_single_core_run() {
        let set = set();
        let cpu = cpu(0.0);
        let p = partition(&set, cpu.f_max(), 2, PartitionHeuristic::WorstFitDecreasing).unwrap();
        let run = MachineRun {
            partition: &p,
            cpu: &cpu,
            schedules: None,
            options: SimOptions {
                hyper_periods: 3,
                ..Default::default()
            },
        };
        let out = run
            .run(
                || Box::new(NoDvs),
                |_, _| |_: TaskId, _: u64| Cycles::from_cycles(500.0),
                &mut |_, _| None,
            )
            .unwrap();
        assert_eq!(out.cores.len(), 2);
        assert!(out.report.all_deadlines_met());
        let total: f64 = out.cores.iter().map(|c| c.report.energy.as_units()).sum();
        assert!((out.report.energy.as_units() - total).abs() < 1e-9);
        // NoDvs at fixed per-job cycles: splitting tasks over cores does
        // not change the dynamic energy (same cycles at the same V).
        let mut single = Simulator::new(&set, &cpu, NoDvs).with_options(SimOptions {
            hyper_periods: 3,
            ..Default::default()
        });
        let mono = single
            .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(500.0))
            .unwrap();
        assert!((out.report.energy.as_units() - mono.report.energy.as_units()).abs() < 1e-6);
        assert_eq!(out.report.hyper_periods, 3);
    }

    #[test]
    fn empty_cores_draw_idle_power_over_the_horizon() {
        let set = set();
        let cpu = cpu(2.0);
        // 8 cores for 3 tasks: at least 5 fully idle cores.
        let p = partition(&set, cpu.f_max(), 8, PartitionHeuristic::FirstFitDecreasing).unwrap();
        let run = MachineRun {
            partition: &p,
            cpu: &cpu,
            schedules: None,
            options: SimOptions {
                hyper_periods: 2,
                ..Default::default()
            },
        };
        let out = run
            .run(
                || Box::new(NoDvs),
                |_, _| |_: TaskId, _: u64| Cycles::from_cycles(100.0),
                &mut |_, _| None,
            )
            .unwrap();
        let horizon = 2.0 * set.hyper_period().get() as f64;
        assert_eq!(out.cores.len(), 8, "empty cores report too");
        for (core, r) in out.cores.iter().map(|c| &c.report).enumerate() {
            if p.cores[core].set.is_none() {
                assert_eq!(r.jobs_completed, 0);
                assert!((r.idle_energy.as_units() - 2.0 * horizon).abs() < 1e-9);
            }
            // Every core idles somewhere; all idle time is charged.
            assert!(
                (r.idle_energy.as_units() - 2.0 * r.idle_time.as_ms()).abs() < 1e-9,
                "core {core}"
            );
        }
        let b = out.report.breakdown();
        assert!(b.idle > Energy::ZERO);
        assert_eq!(b.total(), out.report.energy);
    }

    #[test]
    fn schedule_count_mismatch_rejected() {
        let set = set();
        let cpu = cpu(0.0);
        let p = partition(&set, cpu.f_max(), 2, PartitionHeuristic::FirstFitDecreasing).unwrap();
        let run = MachineRun {
            partition: &p,
            cpu: &cpu,
            schedules: Some(&[]),
            options: SimOptions::default(),
        };
        let err = run
            .run(
                || Box::new(NoDvs),
                |_, _| |_: TaskId, _: u64| Cycles::from_cycles(1.0),
                &mut |_, _| None,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ScheduleCount { .. }), "{err}");
    }

    #[test]
    fn placement_labels_round_trip() {
        for p in Placement::ALL {
            assert_eq!(p.label().parse::<Placement>(), Ok(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert!("clustered".parse::<Placement>().is_err());
    }
}
