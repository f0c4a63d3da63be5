//! # acsched
//!
//! Average-case-aware static voltage scheduling for low-energy preemptive
//! hard real-time systems — a full reproduction of *"Exploiting Dynamic
//! Workload Variation in Low Energy Preemptive Task Scheduling"*
//! (Leung, Tsui, Hu — DATE 2005).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`model`] | `acs-model` | tasks, task sets, typed units |
//! | [`power`] | `acs-power` | DVS processor model |
//! | [`preempt`] | `acs-preempt` | fully preemptive expansion, schedulability tests, ffd/bfd/wfd partitioning |
//! | [`opt`] | `acs-opt` | autodiff + L-BFGS + augmented Lagrangian |
//! | [`core`] | `acs-core` | ACS/WCS schedule synthesis |
//! | [`sim`] | `acs-sim` | runtime simulator & the open [`Policy`] API, global and partitioned machine runs |
//! | [`trace`] | `acs-trace` | arrival sources (sporadic/Poisson/MMPP) & the streaming trace format |
//! | [`workloads`] | `acs-workloads` | distributions, random/CNC/GAP sets |
//! | [`runtime`] | `acs-runtime` | parallel [`Campaign`] runner + streaming [`ResultSink`]s |
//! | [`scenario`] | `acs-scenario` | declarative text-format experiment scenarios |
//!
//! [`ResultSink`]: prelude::ResultSink
//!
//! Experiments also run without writing Rust at all: describe the grid
//! in a scenario file (see `docs/SCENARIO_FORMAT.md` and `scenarios/`)
//! and drive it with the `acsched` CLI (`acsched run scenarios/smoke.txt
//! --out results.csv`).
//!
//! [`Policy`]: prelude::Policy
//! [`Campaign`]: prelude::Campaign
//!
//! ## Quickstart
//!
//! Describe a system, synthesize the offline schedules, then drive the
//! online phase — either one simulation at a time ([`Simulator`]) or as
//! a parallel experiment grid ([`Campaign`]):
//!
//! [`Simulator`]: prelude::Simulator
//!
//! ```
//! use acsched::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe the system.
//! let set = TaskSet::new(vec![
//!     Task::builder("control", Ticks::new(10))
//!         .wcec(Cycles::from_cycles(400.0))
//!         .acec(Cycles::from_cycles(150.0))
//!         .bcec(Cycles::from_cycles(40.0))
//!         .build()?,
//!     Task::builder("telemetry", Ticks::new(20))
//!         .wcec(Cycles::from_cycles(600.0))
//!         .acec(Cycles::from_cycles(200.0))
//!         .bcec(Cycles::from_cycles(60.0))
//!         .build()?,
//! ])?;
//! let cpu = Processor::builder(FreqModel::linear(50.0)?)
//!     .vmin(Volt::from_volts(0.5))
//!     .vmax(Volt::from_volts(4.0))
//!     .build()?;
//!
//! // 2. Synthesize offline schedules (paper's ACS + the WCS baseline).
//! let opts = SynthesisOptions::quick();
//! let acs = synthesize_acs(&set, &cpu, &opts)?;
//!
//! // 3. Run the online DVS phase. Policies implement the open `Policy`
//! //    trait; `GreedyReclaim` is the paper's runtime.
//! let mut draws = TaskWorkloads::paper(&set, 7);
//! let run = Simulator::new(&set, &cpu, GreedyReclaim)
//!     .with_schedule(&acs)
//!     .run(&mut draws)?;
//! assert!(run.report.all_deadlines_met());
//!
//! // 4. Or sweep a whole grid in parallel: schedules × policies ×
//! //    workloads × seeds, aggregated into a deterministic report.
//! let report = Campaign::builder()
//!     .task_set("demo", set)
//!     .processor("linear", cpu)
//!     .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
//!     .policy(PolicySpec::greedy())
//!     .workload(WorkloadSpec::Paper)
//!     .seeds(0..4)
//!     .build()?
//!     .run();
//! // ACS exploits the workload variation at least as well as WCS.
//! let gain = report.gain("demo", "linear", "greedy", "paper-normal").unwrap();
//! assert!(gain > -0.05);
//! # Ok(())
//! # }
//! ```
//!
//! ## Write your own policy in 20 lines
//!
//! The online layer is open: implement [`Policy`](prelude::Policy) and
//! the engine (and any campaign) drives it like a built-in, clamping
//! whatever speed you request into the processor's `[f_min, f_max]`:
//!
//! ```
//! use acsched::prelude::*;
//!
//! /// Run at the chunk's static speed, boosted 10% as an insurance
//! /// margin against bursty workloads.
//! struct Boosted;
//!
//! impl Policy for Boosted {
//!     fn name(&self) -> &str {
//!         "boosted-static"
//!     }
//!     fn needs_schedule(&self) -> bool {
//!         true
//!     }
//!     fn on_dispatch(&mut self, ctx: &DispatchContext<'_>) -> Freq {
//!         ctx.static_speed * 1.1
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (set, cpu) = acsched::workloads::motivation();
//! let schedule = synthesize_wcs(&set, &cpu, &SynthesisOptions::quick())?;
//! let out = Simulator::new(&set, &cpu, Boosted)
//!     .with_schedule(&schedule)
//!     .run(&mut |_: TaskId, _: u64| Cycles::from_cycles(500.0))?;
//! assert!(out.report.all_deadlines_met());
//! # Ok(())
//! # }
//! ```
//!
//! Stateful policies get `on_start`/`on_release`/`on_completion` hooks —
//! see [`sim::policy`] for the full contract and `examples/custom_policy.rs`
//! for a stateful example run through both `Simulator` and `Campaign`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use acs_core as core;
pub use acs_model as model;
pub use acs_opt as opt;
pub use acs_power as power;
pub use acs_preempt as preempt;
pub use acs_runtime as runtime;
pub use acs_scenario as scenario;
pub use acs_sim as sim;
pub use acs_trace as trace;
pub use acs_workloads as workloads;

/// Everything needed for typical use, importable with one line.
pub mod prelude {
    pub use acs_core::{
        evaluate_trace, synthesize_acs, synthesize_acs_best, synthesize_acs_warm, synthesize_wcs,
        synthesize_wcs_warm, verify_worst_case, InstanceProgress, Milestone, ObjectiveKind,
        RemainingInstance, ReoptOptions, ScheduleKind, SpeedBasis, StaticSchedule,
        SynthesisOptions,
    };
    pub use acs_model::units::{Cycles, Energy, Freq, Ticks, Time, TimeSpan, Volt};
    pub use acs_model::{
        ModelError, SchedulingClass, Task, TaskBuilder, TaskGraph, TaskId, TaskSet,
    };
    pub use acs_power::{FreqModel, LevelTable, Processor, TransitionOverhead, VoltageLevels};
    pub use acs_preempt::{
        edf_demand_feasible, edf_utilization_feasible, partition, rm_feasible, rm_response_times,
        CoreAssignment, FullyPreemptiveSchedule, InstanceId, Partition, PartitionHeuristic,
        SubInstance, SubInstanceId,
    };
    pub use acs_runtime::{
        AggregateSink, Campaign, CampaignBuilder, CampaignError, CampaignMeta, CampaignReport,
        CellRecord, CellReport, CellStats, CsvSink, JsonlSink, PolicySpec, ResultSink,
        ScheduleChoice, Tee, WorkloadSpec,
    };
    pub use acs_scenario::{Scenario, ScenarioError};
    pub use acs_sim::{
        improvement_over, render_gantt, ArrivalJob, ArrivalKind, ArrivalSource, BoundaryEvent,
        CcRm, DispatchContext, EnergyBreakdown, ExecutionTrace, GreedyReclaim, IntoPolicy,
        MachineRun, MmppProfile, NoDvs, Placement, Policy, ReOpt, ReOptConfig, SimOptions,
        SimReport, Simulator, Slice, SolverCache, SolverContext, SolverStats, StaticSpeed, Summary,
        WorkloadSource,
    };
    pub use acs_trace::{TraceReader, TraceRecord, TraceSource, TraceWriter};
    pub use acs_workloads::{
        cnc, gap, generate, motivation, RandomSetConfig, TaskWorkloads, WorkloadDist,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Ticks::new(1);
        let _ = GreedyReclaim;
        let _ = PolicySpec::ccrm();
        let _ = ObjectiveKind::AcecTrace;
        let _ = ScheduleChoice::Acs;
    }
}
