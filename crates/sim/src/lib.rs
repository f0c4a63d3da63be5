//! # acs-sim
//!
//! Event-driven preemptive simulator (fixed-priority RM or EDF, per
//! [`SchedulingClass`]) with an **open online-DVS policy API**, for
//! the `acsched` workspace.
//!
//! This is the paper's *runtime phase*: the offline synthesizer
//! (`acs-core`) fixes per-sub-instance end times `e_u` and worst-case
//! budgets `R̂_u`; at runtime the dispatcher picks the supply voltage at
//! every scheduling event. Voltage selection is pluggable through the
//! [`Policy`] trait — implement `on_dispatch` (plus optional
//! `on_release`/`on_completion`/`on_start` state hooks) and the engine
//! drives your policy like any built-in, clamping every requested speed
//! into the processor's `[f_min, f_max]`. Four built-ins ship with the
//! crate:
//!
//! * [`NoDvs`] — flat out, idle when nothing is ready;
//! * [`StaticSpeed`] — the static schedule's speeds, no slack
//!   reclamation;
//! * [`GreedyReclaim`] — the paper's greedy slack redistribution:
//!   `speed = R̂_rem / (e_u − now)`;
//! * [`CcRm`] — a cycle-conserving, online-only baseline in the spirit
//!   of Pillai & Shin;
//! * [`ReOpt`] — the paper's online *re-optimizing* ACS: at every job
//!   boundary it re-solves the remaining low-energy schedule against
//!   the workload observed so far (warm-started, receding-horizon,
//!   cache-backed — see the [`reopt`] module docs).
//!
//! The same engine runs a set on `m` identical cores with global
//! placement ([`Simulator::with_cores`]): one shared ready queue, the
//! `m` most eligible jobs per round, sticky cores and per-core reports
//! ([`CoreOutput`]). Partitioned placement pins each task to a core
//! (`acs_preempt::partition`) and runs one single-core engine per core
//! ([`MachineRun`]); the [`machine`] module compares the two
//! [`Placement`]s.
//!
//! The simulator reports energy, deadline misses, saturation events,
//! idle/busy time and voltage switches ([`SimReport`]), optionally
//! recording an [`ExecutionTrace`] renderable as an ASCII Gantt chart
//! ([`render_gantt`]). For batch experiments over grids of task sets,
//! processors, schedules, policies and workloads, see the `acs-runtime`
//! crate's `Campaign` runner, which parallelizes `Simulator` runs.
//!
//! ## Example
//!
//! ```
//! use acs_core::{synthesize_acs, SynthesisOptions};
//! use acs_model::{Task, TaskId, TaskSet, units::{Cycles, Ticks, Volt}};
//! use acs_power::{FreqModel, Processor};
//! use acs_sim::{GreedyReclaim, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![
//!     Task::builder("ctrl", Ticks::new(10))
//!         .wcec(Cycles::from_cycles(200.0))
//!         .acec(Cycles::from_cycles(80.0))
//!         .bcec(Cycles::from_cycles(20.0))
//!         .build()?,
//! ])?;
//! let cpu = Processor::builder(FreqModel::linear(20.0)?)
//!     .vmin(Volt::from_volts(0.5)).vmax(Volt::from_volts(4.0)).build()?;
//! let schedule = synthesize_acs(&set, &cpu, &SynthesisOptions::quick())?;
//!
//! let out = Simulator::new(&set, &cpu, GreedyReclaim)
//!     .with_schedule(&schedule)
//!     .run(&mut |_task: TaskId, _instance: u64| Cycles::from_cycles(80.0))?;
//! assert!(out.report.all_deadlines_met());
//! # Ok(())
//! # }
//! ```
//!
//! ## Writing your own policy
//!
//! See the [`policy`] module docs for a complete custom-policy example;
//! any `impl Policy` value plugs straight into [`Simulator::new`] (and
//! into `acs-runtime` campaigns) with no engine changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod event;
pub mod exec_trace;
pub mod gantt;
#[cfg(feature = "legacy-engine")]
pub mod legacy;
pub mod machine;
pub mod policy;
pub mod reopt;
pub mod report;
pub mod stats;
pub mod workload;

pub use acs_model::SchedulingClass;
// Arrival-source surface (re-exported so `Simulator::with_arrivals`
// callers need no direct `acs-trace` dependency).
pub use acs_trace::{ArrivalJob, ArrivalKind, ArrivalSource, MmppProfile};
pub use engine::{CoreOutput, RunOutput, SimOptions, Simulator, SteppedRun};
pub use error::SimError;
pub use event::{Event, EventKind, EventQueue, ReadyKey, ReadyQueue};
pub use exec_trace::{ExecutionTrace, Slice};
pub use gantt::render_gantt;
#[cfg(feature = "legacy-engine")]
pub use legacy::{legacy_engine_enabled, set_legacy_engine};
pub use machine::{CoreSourceFactory, MachineRun, Placement};
pub use policy::{
    BoundaryEvent, CcRm, DispatchContext, GreedyReclaim, IntoPolicy, NoDvs, Policy, SolverContext,
    SolverStats, StaticSpeed,
};
pub use reopt::{ReOpt, ReOptConfig, SolverCache, SolverCacheStats};
pub use report::{improvement_over, EnergyBreakdown, SimReport};
pub use stats::Summary;
pub use workload::WorkloadSource;
