//! # acs-runtime
//!
//! Batch experiment runner for the `acsched` workspace: the [`Campaign`]
//! builder composes **task sets × processors × cores × partitioners ×
//! schedule kinds × policies × workload distributions × seeds** into a
//! cartesian experiment grid,
//! executes every run on a scoped thread pool, and either aggregates the
//! outcomes into a deterministic [`CampaignReport`] (per-cell mean/p95
//! energy, deadline misses, ACS-vs-WCS gains) or **streams** one
//! [`CellRecord`] per cell into any [`ResultSink`]
//! ([`Campaign::run_with`]) — CSV, JSON Lines, in-memory aggregation or
//! a [`Tee`] fan-out — in grid order, independent of thread count.
//!
//! Every figure/table binary in `acs-bench` and the `design_space`
//! example are thin layers over this crate — no more hand-rolled sweep
//! loops.
//!
//! Parallelism uses `std::thread::scope` with an atomic work queue (the
//! build environment vendors no external crates, so no rayon); results
//! are keyed by grid index, which makes the report independent of thread
//! count and scheduling order: same inputs + same seeds ⇒ identical
//! report, at any `threads(..)` setting.
//!
//! ## Example
//!
//! ```
//! use acs_model::{Task, TaskSet, units::{Cycles, Ticks, Volt}};
//! use acs_power::{FreqModel, Processor};
//! use acs_runtime::{Campaign, PolicySpec, ScheduleChoice, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![
//!     Task::builder("ctrl", Ticks::new(10))
//!         .wcec(Cycles::from_cycles(300.0))
//!         .acec(Cycles::from_cycles(120.0))
//!         .bcec(Cycles::from_cycles(30.0))
//!         .build()?,
//! ])?;
//! let cpu = Processor::builder(FreqModel::linear(50.0)?)
//!     .vmin(Volt::from_volts(0.3)).vmax(Volt::from_volts(4.0)).build()?;
//!
//! let report = Campaign::builder()
//!     .task_set("ctrl-only", set)
//!     .processor("linear", cpu)
//!     .schedules([ScheduleChoice::Wcs, ScheduleChoice::Acs])
//!     .policy(PolicySpec::greedy())
//!     .workload(WorkloadSpec::Paper)
//!     .seeds(0..4)
//!     .hyper_periods(5)
//!     .build()?
//!     .run();
//! let gain = report.gain("ctrl-only", "linear", "greedy", "paper-normal");
//! assert!(gain.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod pool;
pub mod report;
pub mod sink;

pub use acs_model::SchedulingClass;
pub use acs_preempt::PartitionHeuristic;
pub use acs_sim::Placement;
pub use campaign::{
    Campaign, CampaignBuilder, CampaignError, CampaignPlans, PolicySpec, ScheduleChoice,
    WorkloadSpec,
};
pub use report::{CampaignReport, CellReport, CellStats};
pub use sink::{
    csv_row, AggregateSink, CampaignMeta, CellRecord, CsvSink, JsonlSink, ResultSink, Tee,
    CSV_HEADER,
};
